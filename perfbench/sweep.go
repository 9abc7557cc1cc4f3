package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"cliquelect/elect"
	"cliquelect/internal/obs"
)

// The sweep workload is the paper's Table-1 sweep through local
// elect.RunMany with no cache: tradeoff k=3,4,5 on the grid of
// BENCH_2026-07-30.json plus asynctradeoff k=3. The engines and the RunMany
// executor do nearly all the work; codec, cache, jobs, HTTP and distrib do
// none, so it is the bypass workload for any serving-layer change.

// benchFile is the committed Table-1 artifact the sweep reproduces at the
// default seed.
const benchFile = "BENCH_2026-07-30.json"

// sweepGrid is one RunMany call of a pass, as cmd/sweep makes it: one per
// (spec, k).
type sweepGrid struct {
	spec  elect.Spec
	k     int
	batch elect.Batch
}

// sweepGrids builds the grid of one pass. Seeds follow cmd/sweep: base
// seed + k·104729, ten per size.
func sweepGrids(seed uint64, small bool) ([]sweepGrid, error) {
	ns, asyncNs, seeds, ks := []int{256, 512, 1024, 2048}, []int{256, 512, 1024}, 10, []int{3, 4, 5}
	if small {
		ns, asyncNs, seeds, ks = []int{64, 128}, []int{64}, 2, []int{3}
	}
	var grids []sweepGrid
	add := func(name string, k int, ns []int, extra ...elect.Option) error {
		spec, err := elect.Lookup(name)
		if err != nil {
			return err
		}
		p := elect.DefaultParams()
		p.K = k
		opts := append([]elect.Option{elect.WithParams(p), elect.WithWake(0)}, extra...)
		grids = append(grids, sweepGrid{spec: spec, k: k, batch: elect.Batch{
			Ns: ns, Seeds: elect.Seeds(seed+uint64(k)*104729, seeds),
			Options: opts, Workers: runtime.NumCPU(),
		}})
		return nil
	}
	for _, k := range ks {
		if err := add("tradeoff", k, ns); err != nil {
			return nil, err
		}
	}
	if err := add("asynctradeoff", 3, asyncNs, elect.WithDelays("unit")); err != nil {
		return nil, err
	}
	return grids, nil
}

// benchRows reads the reference (k, n) → (mean msgs, mean time) rows.
func benchRows(root string) (map[[2]int][2]float64, error) {
	data, err := os.ReadFile(filepath.Join(root, benchFile))
	if err != nil {
		return nil, err
	}
	var f struct {
		Rows []struct {
			K        int     `json:"k"`
			N        int     `json:"n"`
			MeanMsgs float64 `json:"mean_msgs"`
			MeanTime float64 `json:"mean_time"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("reading %s: %w", benchFile, err)
	}
	rows := map[[2]int][2]float64{}
	for _, r := range f.Rows {
		rows[[2]int{r.K, r.N}] = [2]float64{r.MeanMsgs, r.MeanTime}
	}
	return rows, nil
}

type sweepState struct {
	grids []sweepGrid
	cells int
	// bench holds the reference rows when the run reproduces them (the
	// full grid at the default seed), else nil.
	bench map[[2]int][2]float64
	// first holds each cell's encoded result from the first pass; every
	// later pass must reproduce it byte for byte.
	first [][]byte
}

// sweepSetup builds the grid, loads the reference rows and warms the
// engines' pools with one seed of every (spec, k, n).
func sweepSetup(o options) (*sweepState, error) {
	grids, err := sweepGrids(o.seed, o.small)
	if err != nil {
		return nil, err
	}
	st := &sweepState{grids: grids}
	for _, g := range grids {
		st.cells += len(g.batch.Ns) * len(g.batch.Seeds)
		warm := g.batch
		warm.Seeds = warm.Seeds[:1]
		if _, err := elect.RunMany(g.spec, warm); err != nil {
			return nil, err
		}
	}
	if o.seed == defaultSeed && !o.small {
		if st.bench, err = benchRows(o.root); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// pass runs every grid once and checks the results. around, when non-nil,
// wraps each RunMany call (the traced run's spans).
func (st *sweepState) pass(res *outcome, around func(g sweepGrid, call func())) (wall, net time.Duration, err error) {
	results := make([]*elect.BatchResult, len(st.grids))
	var runErr error
	watch := startWatch()
	for i, g := range st.grids {
		call := func() { results[i], runErr = elect.RunMany(g.spec, g.batch) }
		if around != nil {
			around(g, call)
		} else {
			call()
		}
		if runErr != nil {
			return 0, 0, runErr
		}
	}
	wall, net = watch.stop()
	return wall, net, st.verify(results, res)
}

// verify checks one pass: every cell elects, tradeoff takes exactly 2k−3
// rounds, every cell matches the first pass byte for byte, and at the
// default seed each (k, n) aggregate equals the reference row.
func (st *sweepState) verify(results []*elect.BatchResult, res *outcome) error {
	record := st.first == nil
	idx := 0
	for i, g := range st.grids {
		for _, r := range results[i].Runs {
			data, err := elect.EncodeResult(r)
			if err != nil {
				return err
			}
			if record {
				st.first = append(st.first, data)
			}
			ok := r.OK && string(data) == string(st.first[idx])
			if g.spec.Name == "tradeoff" {
				ok = ok && r.Rounds == 2*g.k-3
			}
			res.check(ok)
			idx++
		}
		if st.bench == nil || g.spec.Name != "tradeoff" {
			continue
		}
		for _, agg := range results[i].Aggregates {
			want, found := st.bench[[2]int{g.k, agg.N}]
			res.check(found && agg.Messages.Mean == want[0] && agg.Time.Mean == want[1])
		}
	}
	return nil
}

func runSweep(o options) (*outcome, error) {
	st, setup, err := setupMedian(setupReps, func() (*sweepState, error) { return sweepSetup(o) }, func(*sweepState) {})
	if err != nil {
		return nil, err
	}
	res := &outcome{metrics: map[string]float64{}}
	measure := o.seconds
	if o.trace {
		measure /= 2
	}
	pa, err := measurePasses(measure, func() (time.Duration, time.Duration, error) { return st.pass(res, nil) })
	if err != nil {
		return nil, err
	}
	ph := pa.phase(setup, st.cells)
	fmt.Fprintf(o.out, "# sweep: %d passes of %d cells (%d RunMany calls each, Workers=%d); an operation is one pass\n",
		len(pa.walls), st.cells, len(st.grids), runtime.NumCPU())
	ph.print(o.out, res)
	if st.bench != nil {
		fmt.Fprintf(o.out, "# every (k, n) aggregate matched %s\n", benchFile)
	}
	res.metrics = ph.metrics()
	if !o.trace {
		return res, nil
	}

	m := res.metrics
	runtimeMetrics(m, pa.memBefore, pa.memAfter, len(pa.walls))
	col := obs.NewSpanCollector(1 << 16)
	bd := newBreakdown()
	var traced []float64
	var passErr error
	loopFor(measure, func() bool {
		root := obs.NewSpanContext()
		var wall, net time.Duration
		passStart := time.Now()
		wall, net, passErr = st.pass(res, func(g sweepGrid, call func()) {
			start := time.Now()
			call()
			addSpan(col, root.Child(), root, "elect.RunMany", start, time.Since(start),
				map[string]string{"spec": g.spec.Name, "k": strconv.Itoa(g.k)})
		})
		addSpan(col, root, obs.SpanContext{}, "sweep.pass", passStart, wall, nil)
		traced = append(traced, ms(net))
		return passErr == nil
	})
	if passErr != nil {
		return nil, passErr
	}
	spans := col.Spans()
	traces := byTrace(spans)
	for _, s := range spans {
		if s.Name == "sweep.pass" {
			bd.add(s, traces[s.Trace], rowOf)
		}
	}

	// The executor is opaque from outside, so the engine's share of its
	// time comes from replaying one pass serially: Σ cell time ÷ workers
	// is the engine's wall share of a pass, and the rest is the executor's.
	var cells []cell
	for _, g := range st.grids {
		for _, n := range g.batch.Ns {
			for _, seed := range g.batch.Seeds {
				cells = append(cells, cell{g.spec, cellOpts(g.batch.Options, n, seed)})
			}
		}
	}
	replayRoot := obs.NewSpanContext()
	replayStart := time.Now()
	syncDur, asyncDur, err := replay(cells, nil, col, replayRoot, m, res)
	if err != nil {
		return nil, err
	}
	addSpan(col, replayRoot, obs.SpanContext{}, "perfbench.replay", replayStart, time.Since(replayStart), nil)
	// Rows in net time, like the passes: the span attribution leaves the
	// RunMany calls and the residual; the replay splits the calls.
	workers := float64(runtime.NumCPU())
	ops := float64(bd.ops)
	bd.total = sum(traced)
	residual := bd.rows[residualRow]
	bd.rows = map[string]float64{
		residualRow: residual,
		"simsync: engine (serial replay ÷ workers)":  ops * ms(syncDur) / workers,
		"simasync: engine (serial replay ÷ workers)": ops * ms(asyncDur) / workers,
		"elect: RunMany executor (rest)":             bd.total - residual - ops*ms(syncDur+asyncDur)/workers,
	}

	m["elect.runmany_efficiency"] = ms(syncDur+asyncDur) / (workers * median(pa.nets))
	m["obs.trace_overhead"] = mean(traced)/mean(pa.nets) - 1
	m["residual_ms"] = bd.residual()
	printLayers(o.out, m)
	bd.print(o.out, "sweep pass net of steal (engine rows from a serial replay of one pass)")
	return res, writeTrace(o, "sweep", col.Spans())
}

// writeTrace writes the traced run's merged spans as Chrome trace-event
// JSON under the checkout's build directory.
func writeTrace(o options, name string, spans []obs.Span) error {
	path := traceFile(o, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(o.out, "# chrome trace: %s (%d spans)\n", path, len(spans))
	return nil
}
