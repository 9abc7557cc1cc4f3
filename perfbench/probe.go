package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"cliquelect/elect"
	"cliquelect/internal/obs"
)

// quantile interpolates linearly between the closest ranks of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail is the highest of the usual percentiles with at least ten samples
// beyond it, with its label; below 20 samples it is the maximum.
func tail(xs []float64) (float64, string) {
	n := float64(len(xs))
	for _, q := range []float64{0.999, 0.99, 0.9, 0.5} {
		if (1-q)*n >= 10-1e-9 {
			return quantile(xs, q), qLabel(q)
		}
	}
	return quantile(xs, 1), "max"
}

func qLabel(q float64) string {
	if q == 1 {
		return "max"
	}
	return "p" + strconv.FormatFloat(q*100, 'g', 4, 64)
}

// opTailQ is the percentile op_tail_ms reports for n operations: the
// highest with at least ten operations beyond it, capped at p90 because on
// a shared host a steal interval can cover the last percent of requests.
// A sweep run has a few dozen passes, so its tail sits near p70.
func opTailQ(n int) float64 {
	if n < 11 {
		return 1
	}
	return min(0.9, 1-10/float64(n-1))
}

// phase is what the untraced measured phase yields: the end-to-end
// metrics, the live heap and the human-readable lines beside them.
type phase struct {
	setup float64       // median set-up time, s
	ops   []float64     // time of each operation, ms
	walls []float64     // wall time of each operation when ops is net of steal
	rate  float64       // cells delivered per second
	cells int           // cells delivered in the phase
	cpu   time.Duration // process CPU time over the phase
	steal float64       // machine's stolen CPU share over the phase
	heap  float64       // median live heap over the phase, MB
}

func (p phase) metrics() map[string]float64 {
	return map[string]float64{
		"setup_s":         p.setup,
		"cells_per_s":     p.rate,
		"cpu_ms_per_cell": ms(p.cpu) / float64(p.cells),
		"op_p50_ms":       median(p.ops),
		"op_tail_ms":      quantile(p.ops, opTailQ(len(p.ops))),
		// Per-layer: the sweep's footprint depends on the seed, so it cannot
		// hold an end-to-end bound across seeds.
		"runtime.heap_live_mb": p.heap,
	}
}

func (p phase) print(w io.Writer, res *outcome) {
	m := p.metrics()
	q := opTailQ(len(p.ops))
	beyond := int(math.Round((1 - q) * float64(len(p.ops)-1)))
	fmt.Fprintf(w, "# cells_per_s %.2f; cpu_ms_per_cell %.4f; op_p50_ms %.4f; op_tail_ms %.4f (%s of %d ops, %d beyond)\n",
		m["cells_per_s"], m["cpu_ms_per_cell"], m["op_p50_ms"], m["op_tail_ms"], qLabel(q), len(p.ops), beyond)
	if p.walls != nil {
		fmt.Fprintf(w, "# wall time, steal included: op_p50_ms %.4f; op_tail_ms %.4f\n",
			median(p.walls), quantile(p.walls, q))
	}
	fmt.Fprintf(w, "# setup_s %.4f; heap_live_mb %.1f; error_ratio %g (%d of %d checks failed); cpu steal %.1f%%\n",
		p.setup, p.heap, errorRatio(res), res.failed, res.attempted, 100*p.steal)
}

func errorRatio(res *outcome) float64 {
	if res.attempted == 0 {
		return 0
	}
	return float64(res.failed) / float64(res.attempted)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// loopFor calls op until d has elapsed, at least once; op returns false
// to stop early.
func loopFor(d time.Duration, op func() bool) {
	start := time.Now()
	for op() && time.Since(start) < d {
	}
}

// stopwatch times an interval as wall time and as net time: wall time
// less the share of the machine's CPU ticks the hypervisor stole meanwhile.
// On a shared host the net time of an interval that keeps every CPU busy
// is what a machine of its own would show; the wall time swings with the
// other guests' load.
type stopwatch struct {
	start time.Time
	cpu   cpuSnap
}

// startWatch and stop read the CPU counters outside the timed interval.
func startWatch() stopwatch {
	cpu := readCPU()
	return stopwatch{time.Now(), cpu}
}

// stop returns the wall and net time since startWatch.
func (w stopwatch) stop() (wall, net time.Duration) {
	wall = time.Since(w.start)
	return wall, time.Duration(float64(wall) * (1 - stealShare(w.cpu, readCPU())))
}

// passes is the untraced measured phase of a pass workload: each pass's
// wall and net time, ms, and the process's counters around the phase.
type passes struct {
	walls, nets         []float64
	memBefore, memAfter memSnap
	cpuBefore, cpuAfter cpuSnap
	heap                float64
}

// measurePasses calls pass until d has elapsed.
func measurePasses(d time.Duration, pass func() (wall, net time.Duration, err error)) (passes, error) {
	var (
		p   passes
		err error
	)
	p.memBefore, p.cpuBefore = readMem(), readCPU()
	heap := sampleHeap()
	loopFor(d, func() bool {
		var wall, net time.Duration
		wall, net, err = pass()
		p.walls = append(p.walls, ms(wall))
		p.nets = append(p.nets, ms(net))
		return err == nil
	})
	p.heap = heap.median()
	p.memAfter, p.cpuAfter = readMem(), readCPU()
	return p, err
}

// phase builds the end-to-end view of the passes: an operation is a pass
// of cells cells, timed net of steal, and throughput is taken at the
// median pass.
func (p passes) phase(setup float64, cells int) phase {
	return phase{
		setup: setup, ops: p.nets, walls: p.walls, cells: cells * len(p.nets),
		rate: float64(cells) / (median(p.nets) / 1e3),
		cpu:  p.cpuAfter.proc - p.cpuBefore.proc, steal: stealShare(p.cpuBefore, p.cpuAfter),
		heap: p.heap,
	}
}

// setupMedian builds the workload's set-up reps times, tearing each
// instance down before the next, and returns the last instance with the
// median net build time in seconds.
func setupMedian[T any](reps int, build func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		last T
		durs []float64
	)
	for i := 0; i < reps; i++ {
		if i > 0 {
			teardown(last)
		}
		w := startWatch()
		v, err := build()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		_, net := w.stop()
		durs = append(durs, net.Seconds())
		last = v
	}
	return last, median(durs), nil
}

// heapSampler samples the Go runtime's live heap, the bytes the last
// garbage collection found reachable, every 100 ms from start until
// median is called. The process's resident set swung by a fifth between
// identical runs with the runtime's scavenging; the live heap does not.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MB
}

func sampleHeap() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		for {
			metrics.Read(live)
			if live[0].Value.Kind() == metrics.KindUint64 {
				s.samples = append(s.samples, float64(live[0].Value.Uint64())/(1<<20))
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// median stops the sampler and returns the median sample.
func (s *heapSampler) median() float64 {
	close(s.stop)
	<-s.done
	return median(s.samples)
}

// cpuSnap is the process's CPU time and the machine's CPU ticks, total and
// stolen by the hypervisor, at one instant.
type cpuSnap struct {
	proc         time.Duration
	steal, ticks uint64
}

func readCPU() cpuSnap {
	var s cpuSnap
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.proc = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return s
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, _ := strconv.ParseUint(fields[i], 10, 64)
		s.ticks += v
		if i == 8 {
			s.steal = v
		}
	}
	return s
}

// stealShare is the share of the machine's CPU time the hypervisor gave
// to other guests between two snapshots.
func stealShare(before, after cpuSnap) float64 {
	if after.ticks <= before.ticks {
		return 0
	}
	return float64(after.steal-before.steal) / float64(after.ticks-before.ticks)
}

// memSnap is the part of runtime.MemStats the benchmark diffs around a
// phase or a call.
type memSnap struct {
	mallocs, bytes, gcs, pauseNs uint64
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{m.Mallocs, m.TotalAlloc, uint64(m.NumGC), m.PauseTotalNs}
}

// runtimeMetrics stores the Go runtime's cost per operation between two
// snapshots.
func runtimeMetrics(m map[string]float64, before, after memSnap, ops int) {
	if ops == 0 {
		return
	}
	n := float64(ops)
	m["runtime.gc_cycles_per_op"] = float64(after.gcs-before.gcs) / n
	m["runtime.gc_pause_ms"] = float64(after.pauseNs-before.pauseNs) / 1e6 / n
	m["runtime.alloc_bytes_per_op"] = float64(after.bytes-before.bytes) / n
}

// countingTransport counts the requests that cross it and the bytes of
// their replies.
type countingTransport struct {
	base      *http.Transport
	requests  atomic.Int64
	respBytes atomic.Int64
}

// newCountingTransport allows conns connections to each host.
func newCountingTransport(conns int) *countingTransport {
	base := http.DefaultTransport.(*http.Transport).Clone()
	base.MaxConnsPerHost = conns
	base.MaxIdleConnsPerHost = conns
	return &countingTransport{base: base}
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.requests.Add(1)
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.respBytes}
	return resp, nil
}

func (t *countingTransport) close() { t.base.CloseIdleConnections() }

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// cell is one election as the benchmark replays it outside the program's
// executors.
type cell struct {
	spec elect.Spec
	opts []elect.Option
}

// cellOpts are the options of one grid cell; base carries params, wake and
// delays exactly as the grid's Batch.Options do.
func cellOpts(base []elect.Option, n int, seed uint64) []elect.Option {
	return append(base[:len(base):len(base)], elect.WithN(n), elect.WithSeed(seed))
}

// replay runs cells serially through elect.Run with a MemStats delta around
// each call, and times Fingerprint, EncodeResult and DecodeResult on each
// result, every call net of steal. want, when non-nil, holds the bytes the program returned for each
// cell; a replay that differs counts as a failed check. Every call gets a
// benchmark-side span under parent in col. It returns the serial engine
// time, the sum of the elect.Run calls net of steal, of the synchronous and
// the asynchronous cells.
func replay(cells []cell, want [][]byte, col *obs.SpanCollector, parent obs.SpanContext, m map[string]float64, res *outcome) (syncDur, asyncDur time.Duration, err error) {
	type group struct {
		cells          int
		dur            time.Duration
		mallocs, bytes uint64
		msgs           int64
		rounds         int
	}
	groups := map[elect.Model]*group{elect.Sync: {}, elect.Async: {}}
	perSpec := map[string][]float64{}
	var fp, enc, dec []float64
	timed := func(name string, f func() error) (time.Duration, error) {
		start := time.Now()
		watch := startWatch()
		err := f()
		wall, net := watch.stop()
		addSpan(col, parent.Child(), parent, name, start, wall, nil)
		return net, err
	}
	for i, c := range cells {
		var r elect.Result
		before := readMem()
		d, err := timed("elect.Run", func() (err error) {
			r, err = elect.Run(c.spec, c.opts...)
			return err
		})
		after := readMem()
		if err != nil {
			return 0, 0, fmt.Errorf("replaying %s: %w", c.spec.Name, err)
		}
		g := groups[c.spec.Model]
		g.cells++
		g.dur += d
		g.mallocs += after.mallocs - before.mallocs
		g.bytes += after.bytes - before.bytes
		g.msgs += r.Messages
		g.rounds += r.Rounds
		perSpec[c.spec.Name] = append(perSpec[c.spec.Name], ms(d))

		d, err = timed("elect.Fingerprint", func() error {
			_, err := elect.Fingerprint(c.spec, c.opts...)
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		fp = append(fp, float64(d)/1e3)
		var data []byte
		d, err = timed("elect.EncodeResult", func() (err error) {
			data, err = elect.EncodeResult(r)
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		enc = append(enc, float64(d)/1e3)
		var back elect.Result
		d, err = timed("elect.DecodeResult", func() (err error) {
			back, err = elect.DecodeResult(data)
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		dec = append(dec, float64(d)/1e3)
		res.check(r.OK && back.Messages == r.Messages && (want == nil || string(want[i]) == string(data)))
	}
	if g := groups[elect.Sync]; g.cells > 0 {
		n := float64(g.cells)
		m["simsync.ns_per_msg"] = float64(g.dur) / float64(g.msgs)
		m["simsync.allocs_per_cell"] = float64(g.mallocs) / n
		m["simsync.bytes_per_cell"] = float64(g.bytes) / n
		m["simsync.msgs_per_cell"] = float64(g.msgs) / n
		m["simsync.rounds_per_cell"] = float64(g.rounds) / n
	}
	if g := groups[elect.Async]; g.cells > 0 {
		n := float64(g.cells)
		m["simasync.ns_per_msg"] = float64(g.dur) / float64(g.msgs)
		m["simasync.allocs_per_cell"] = float64(g.mallocs) / n
		m["simasync.msgs_per_cell"] = float64(g.msgs) / n
	}
	for name, durs := range perSpec {
		m["elect.cell_p50_ms."+name] = median(durs)
	}
	m["elect.fingerprint_us"] = median(fp)
	m["elect.encode_us"] = median(enc)
	m["elect.decode_us"] = median(dec)
	return groups[elect.Sync].dur, groups[elect.Async].dur, nil
}

// addSpan records one benchmark-side span; a nil collector drops it.
func addSpan(col *obs.SpanCollector, sc, parent obs.SpanContext, name string, start time.Time, d time.Duration, attrs map[string]string) {
	col.Add(obs.Span{
		Trace: sc.Trace, ID: sc.Span, Parent: parent.Span,
		Name: name, Service: "perfbench",
		Start: start.UnixMicro(), Dur: d.Microseconds(), Attrs: attrs,
	})
}

// printLayers prints the traced run's per-layer metrics with the layer
// each measures and the end-to-end metric it should move.
func printLayers(w io.Writer, m map[string]float64) {
	fmt.Fprintf(w, "# %-34s %14s %-7s %-16s %s\n", "per-layer metric", "value", "unit", "layer", "should move")
	for _, d := range perLayer {
		fmt.Fprintf(w, "# %-34s %14.4f %-7s %-16s %s\n", d.name, m[d.name], d.unit, d.layer, d.moves)
	}
}
