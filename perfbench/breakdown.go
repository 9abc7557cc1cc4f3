package main

import (
	"fmt"
	"io"
	"sort"

	"cliquelect/internal/obs"
)

// residualRow names the share of an operation no layer span covers.
const residualRow = "residual"

// breakdown accumulates, over many operations, the wall time of each
// operation split across the layers whose spans cover it.
type breakdown struct {
	ops   int
	total float64            // Σ operation wall time, ms
	rows  map[string]float64 // Σ attributed wall time, ms
}

func newBreakdown() *breakdown { return &breakdown{rows: map[string]float64{}} }

// add attributes root's wall time to the spans of its trace below it:
// every instant goes to the innermost spans active then, shared equally
// when several run at once, so the rows of one operation sum to its
// duration exactly. Instants no descendant covers go to the residual.
// label names a span's row.
func (b *breakdown) add(root obs.Span, spans []obs.Span, label func(obs.Span) string) {
	children := map[obs.SpanID][]int{}
	for i, s := range spans {
		if s.Trace == root.Trace && s.ID != root.ID {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	// Descendants of root, clipped to its interval.
	type node struct {
		start, end int64
		row        string
		kids       []int // indexes into nodes
	}
	var nodes []node
	var walk func(id obs.SpanID) []int
	walk = func(id obs.SpanID) []int {
		var out []int
		for _, i := range children[id] {
			s := spans[i]
			start, end := max(s.Start, root.Start), min(s.End(), root.End())
			if end <= start {
				continue
			}
			idx := len(nodes)
			nodes = append(nodes, node{start: start, end: end, row: label(s)})
			kids := walk(s.ID)
			nodes[idx].kids = kids
			out = append(out, idx)
		}
		return out
	}
	walk(root.ID)

	points := []int64{root.Start, root.End()}
	for _, n := range nodes {
		points = append(points, n.start, n.end)
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	active := make([]bool, len(nodes))
	var leaves []int
	for p := 1; p < len(points); p++ {
		a, z := points[p-1], points[p]
		if z == a {
			continue
		}
		for i, n := range nodes {
			active[i] = n.start <= a && n.end >= z
		}
		leaves = leaves[:0]
		for i, n := range nodes {
			if !active[i] {
				continue
			}
			inner := false
			for _, k := range n.kids {
				if active[k] {
					inner = true
					break
				}
			}
			if !inner {
				leaves = append(leaves, i)
			}
		}
		dt := float64(z-a) / 1e3
		if len(leaves) == 0 {
			b.rows[residualRow] += dt
			continue
		}
		for _, i := range leaves {
			b.rows[nodes[i].row] += dt / float64(len(leaves))
		}
	}
	b.ops++
	b.total += float64(root.Dur) / 1e3
}

// residual is the mean unexplained time per operation, ms.
func (b *breakdown) residual() float64 {
	if b.ops == 0 {
		return 0
	}
	return b.rows[residualRow] / float64(b.ops)
}

// print writes the table: one row per layer, mean ms per operation, the
// residual last, and the total they sum to.
func (b *breakdown) print(w io.Writer, title string) {
	if b.ops == 0 {
		return
	}
	n := float64(b.ops)
	names := make([]string, 0, len(b.rows))
	for name := range b.rows {
		if name != residualRow {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool { return b.rows[names[i]] > b.rows[names[j]] })
	fmt.Fprintf(w, "# breakdown: %s, mean over %d operations\n", title, b.ops)
	fmt.Fprintf(w, "# %-34s %12s %7s\n", "layer (self time)", "ms/op", "share")
	sum := 0.0
	for _, name := range append(names, residualRow) {
		v := b.rows[name] / n
		sum += v
		fmt.Fprintf(w, "# %-34s %12.4f %6.1f%%\n", name, v, 100*v/(b.total/n))
	}
	fmt.Fprintf(w, "# %-34s %12.4f (end to end %.4f)\n", "total", sum, b.total/n)
}

// spanLayer names the module each span the benchmark reads belongs to.
var spanLayer = map[string]string{
	"elect.RunMany":  "elect",
	"grid":           "distrib",
	"chunk.dispatch": "distrib",
	"client.request": "elect/client",
	"client.attempt": "transport",
	"http.request":   "service",
	"queue.wait":     "jobs",
	"job.exec":       "jobs",
}

// rowOf is a span's breakdown row: its layer and name, and for job
// executions the job kind.
func rowOf(s obs.Span) string {
	name := s.Name
	if s.Name == "job.exec" {
		name += " " + s.Attrs["kind"]
	}
	if layer, ok := spanLayer[s.Name]; ok {
		return layer + ": " + name
	}
	return name
}

// dedupe merges span sets that may hold the same span twice (a worker
// records its chunk spans locally and also returns them to the
// coordinator), keeping the first copy.
func dedupe(sets ...[]obs.Span) []obs.Span {
	type key struct {
		t obs.TraceID
		s obs.SpanID
	}
	seen := map[key]bool{}
	var out []obs.Span
	for _, set := range sets {
		for _, s := range set {
			k := key{s.Trace, s.ID}
			if !seen[k] {
				seen[k] = true
				out = append(out, s)
			}
		}
	}
	return out
}

// byTrace groups spans by trace id.
func byTrace(spans []obs.Span) map[obs.TraceID][]obs.Span {
	out := map[obs.TraceID][]obs.Span{}
	for _, s := range spans {
		out[s.Trace] = append(out[s.Trace], s)
	}
	return out
}

// selfP50 is the median self time, in ms, of the spans named name whose
// attrs match want: each span's duration minus the part its direct
// children cover.
func selfP50(spans []obs.Span, name string, want map[string]string) float64 {
	kids := children(spans)
	var out []float64
	for _, s := range spans {
		if s.Name == name && matches(s, want) {
			out = append(out, float64(s.Dur-covered(s, kids[s.ID]))/1e3)
		}
	}
	return median(out)
}

// transportTimes lists, in ms, each client.request's duration minus the
// server-side http.request spans under its attempts: the time spent in
// the HTTP client, the connection and the server's framing.
func transportTimes(spans []obs.Span) []float64 {
	kids := children(spans)
	var out []float64
	for _, s := range spans {
		if s.Name != "client.request" {
			continue
		}
		served, found := int64(0), false
		for _, a := range kids[s.ID] {
			for _, h := range kids[a.ID] {
				if h.Name == "http.request" {
					served += h.Dur
					found = true
				}
			}
		}
		if found {
			out = append(out, float64(s.Dur-served)/1e3)
		}
	}
	return out
}

func children(spans []obs.Span) map[obs.SpanID][]obs.Span {
	kids := map[obs.SpanID][]obs.Span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	return kids
}

func matches(s obs.Span, want map[string]string) bool {
	for k, v := range want {
		if s.Attrs[k] != v {
			return false
		}
	}
	return true
}

// covered is how much of s's interval the union of spans covers, µs.
func covered(s obs.Span, spans []obs.Span) int64 {
	type iv struct{ a, z int64 }
	var ivs []iv
	for _, c := range spans {
		a, z := max(c.Start, s.Start), min(c.End(), s.End())
		if z > a {
			ivs = append(ivs, iv{a, z})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = s.Start
	for _, v := range ivs {
		if v.z <= end {
			continue
		}
		total += v.z - max(v.a, end)
		end = v.z
	}
	return total
}

// durations lists, in ms, the durations of the spans named name whose
// attrs match every key/value of want.
func durations(spans []obs.Span, name string, want map[string]string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && matches(s, want) {
			out = append(out, float64(s.Dur)/1e3)
		}
	}
	return out
}
