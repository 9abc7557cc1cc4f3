package main

import (
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"cliquelect/elect"
	"cliquelect/elect/client"
	"cliquelect/internal/distrib"
	"cliquelect/internal/obs"
	"cliquelect/internal/service"
)

// The fleet workload is a coordinator RunMany with Batch.Remote over two
// in-process worker daemons on loopback, each with Workers = 1,
// BatchWorkers = 1, no cache and one chunk in flight. The grid has many
// small cells, so chunk dispatch, the chunk-response codec and the merge
// are a large share of each pass. It is the only workload that exercises
// distrib.

const fleetWorkers = 2

type fleetState struct {
	workers []*daemon
	urls    []string
	ct      *countingTransport
	spec    elect.Spec
	batch   elect.Batch // the grid, local form
	cells   int
	ref     []byte   // EncodeBatchResult of the local reference
	refRuns [][]byte // EncodeResult of each reference cell
}

// fleetRequest is the grid in wire form: tradeoff k=3 (the default
// params), n ∈ {128, 256, 512} × 64 seeds.
func fleetRequest(seed uint64, small bool) client.BatchRequest {
	req := client.BatchRequest{Spec: "tradeoff", Ns: []int{128, 256, 512}, Seeds: elect.Seeds(seed<<20, 64)}
	if small {
		req.Ns, req.Seeds = []int{64}, elect.Seeds(seed<<20, 8)
	}
	return req
}

// fleetSetup starts the workers, computes the local reference of the grid
// and warms the fleet with one checked pass.
func fleetSetup(o options) (*fleetState, error) {
	spec, batch, err := fleetRequest(o.seed, o.small).Resolve()
	if err != nil {
		return nil, err
	}
	st := &fleetState{spec: spec, batch: batch, ct: newCountingTransport(1)}
	for i := 0; i < fleetWorkers; i++ {
		cfg := service.Config{Workers: 1, QueueDepth: 256, BatchWorkers: 1}
		if o.trace {
			cfg.TraceSpans = 1 << 16
		}
		d, err := startDaemon(cfg)
		if err != nil {
			st.close()
			return nil, err
		}
		st.workers = append(st.workers, d)
		st.urls = append(st.urls, d.base)
	}
	local := batch
	local.Workers = runtime.NumCPU()
	if err := st.reference(local); err != nil {
		st.close()
		return nil, err
	}
	fleet, err := st.fleet(nil, obs.SpanContext{})
	if err == nil {
		_, _, err = st.pass(fleet, &outcome{})
	}
	if err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// reference computes the grid locally and keeps its bytes.
func (st *fleetState) reference(local elect.Batch) error {
	ref, err := elect.RunMany(st.spec, local)
	if err != nil {
		return err
	}
	if st.ref, err = elect.EncodeBatchResult(ref); err != nil {
		return err
	}
	for _, r := range ref.Runs {
		data, err := elect.EncodeResult(r)
		if err != nil {
			return err
		}
		st.refRuns = append(st.refRuns, data)
	}
	st.cells = len(ref.Runs)
	return nil
}

func (st *fleetState) close() {
	for _, d := range st.workers {
		d.close()
	}
	st.ct.close()
}

// fleet builds a coordinator over the workers: one chunk in flight per
// worker, every worker client on the counting transport. col and root
// trace it.
func (st *fleetState) fleet(col *obs.SpanCollector, root obs.SpanContext) (*distrib.Fleet, error) {
	return distrib.New(distrib.Config{
		Workers: st.urls, MaxInflight: 1, Spans: col, Root: root,
		ClientOptions: []client.ClientOption{client.WithHTTPClient(&http.Client{Transport: st.ct})},
	})
}

// pass runs the grid through the fleet and checks the merged result
// against the local reference, cell by cell and as a whole.
func (st *fleetState) pass(fleet *distrib.Fleet, res *outcome) (wall, net time.Duration, err error) {
	b := st.batch
	b.Remote = fleet.Runner(client.Options{})
	watch := startWatch()
	got, err := elect.RunMany(st.spec, b)
	wall, net = watch.stop()
	if err != nil {
		return 0, 0, err
	}
	for i, r := range got.Runs {
		data, err := elect.EncodeResult(r)
		res.check(err == nil && i < len(st.refRuns) && string(data) == string(st.refRuns[i]))
	}
	data, err := elect.EncodeBatchResult(got)
	res.check(err == nil && len(got.Runs) == st.cells && string(data) == string(st.ref))
	return wall, net, nil
}

func runFleet(o options) (*outcome, error) {
	st, setup, err := setupMedian(setupReps, func() (*fleetState, error) { return fleetSetup(o) },
		func(st *fleetState) { st.close() })
	if err != nil {
		return nil, err
	}
	defer st.close()
	res := &outcome{metrics: map[string]float64{}}
	measure := o.seconds
	if o.trace {
		measure /= 2
	}
	fleetA, err := st.fleet(nil, obs.SpanContext{})
	if err != nil {
		return nil, err
	}
	statsBefore, bytesBefore := fleetA.Stats(), st.ct.respBytes.Load()
	pa, err := measurePasses(measure, func() (time.Duration, time.Duration, error) { return st.pass(fleetA, res) })
	if err != nil {
		return nil, err
	}
	statsAfter, bytesAfter := fleetA.Stats(), st.ct.respBytes.Load()
	ph := pa.phase(setup, st.cells)
	fmt.Fprintf(o.out, "# fleet: %d passes of %d cells over %d workers (Workers=1, MaxInflight=1, no cache); an operation is one pass\n",
		len(pa.walls), st.cells, fleetWorkers)
	ph.print(o.out, res)
	res.metrics = ph.metrics()
	if !o.trace {
		return res, nil
	}

	m := res.metrics
	walls := pa.walls
	p50 := median(pa.nets)
	passes := float64(len(walls))
	runtimeMetrics(m, pa.memBefore, pa.memAfter, len(walls))
	var chunks, busy, attempts, retries int64
	for i, w := range statsAfter.Workers {
		chunks += w.Chunks - statsBefore.Workers[i].Chunks
		busy += int64(w.Busy - statsBefore.Workers[i].Busy)
	}
	attempts = statsAfter.HTTPAttempts - statsBefore.HTTPAttempts
	retries = statsAfter.HTTPRetries - statsBefore.HTTPRetries
	m["distrib.chunks"] = float64(chunks) / passes
	m["distrib.retried"] = float64(statsAfter.ChunksRetried - statsBefore.ChunksRetried)
	m["distrib.worker_busy_ratio"] = float64(busy) / (fleetWorkers * float64(sum(walls)) * 1e6)
	m["client.attempts"] = float64(attempts) / passes
	m["client.retries"] = float64(retries)
	m["client.resp_bytes_per_cell"] = float64(bytesAfter-bytesBefore) / (passes * float64(st.cells))

	// Traced passes: each pass gets a coordinator whose grid span hangs
	// under the pass's root, so the whole fleet tree of one pass shares
	// one trace.
	col := obs.NewSpanCollector(1 << 18)
	bd := newBreakdown()
	var traced []float64
	var roots []obs.Span
	var passErr error
	loopFor(measure, func() bool {
		root := obs.NewSpanContext()
		var fleet *distrib.Fleet
		if fleet, passErr = st.fleet(col, root); passErr != nil {
			return false
		}
		var wall, net time.Duration
		start := time.Now()
		wall, net, passErr = st.pass(fleet, res)
		traced = append(traced, ms(net))
		roots = append(roots, obs.Span{Trace: root.Trace, ID: root.Span, Name: "fleet.pass",
			Service: "perfbench", Start: start.UnixMicro(), Dur: wall.Microseconds()})
		return passErr == nil
	})
	if passErr != nil {
		return nil, passErr
	}
	for _, r := range roots {
		col.Add(r)
	}
	benchSpans := col.Spans()
	var workerSpans [][]obs.Span
	for _, d := range st.workers {
		workerSpans = append(workerSpans, d.srv.Spans().Spans())
	}
	// The workers' own http.request spans come first: a chunk response
	// returns a chunk.serve copy under the same id.
	spans := dedupe(append(workerSpans, benchSpans)...)
	traces := byTrace(spans)
	for _, r := range roots {
		bd.add(r, traces[r.Trace], rowOf)
	}
	dispatched := 0
	for _, s := range spans {
		if s.Name == "chunk.dispatch" {
			n, _ := strconv.Atoi(s.Attrs["count"])
			dispatched += n
		}
	}
	if dispatched > 0 {
		m["distrib.useful_ratio"] = float64(len(roots)*st.cells) / float64(dispatched)
	}
	m["distrib.dispatch_p50_ms"] = median(durations(spans, "chunk.dispatch", nil))
	m["service.chunk_serve_p50_ms"] = median(durations(benchSpans, "chunk.serve", nil))
	m["service.handler_self_p50_ms"] = selfP50(spans, "http.request", map[string]string{"route": "/v1/chunk"})
	m["client.transport_p50_ms"] = median(transportTimes(spans))
	qw := durations(spans, "queue.wait", nil)
	m["jobs.queue_wait_p50_ms"] = median(qw)
	m["jobs.queue_wait_tail_ms"], _ = tail(qw)
	m["jobs.exec_p50_ms.chunk"] = median(durations(spans, "job.exec", map[string]string{"kind": "chunk"}))
	m["obs.trace_overhead"] = mean(traced)/mean(pa.nets) - 1
	m["residual_ms"] = bd.residual()

	// The same grid run locally, for the fleet's overhead, and replayed
	// serially, for the engine's share.
	var locals []float64
	local := st.batch
	local.Workers = runtime.NumCPU()
	for i := 0; i < 5; i++ {
		watch := startWatch()
		if _, err := elect.RunMany(st.spec, local); err != nil {
			return nil, err
		}
		_, net := watch.stop()
		locals = append(locals, ms(net))
	}
	m["distrib.overhead_ratio"] = p50 / median(locals)
	var cells []cell
	for _, n := range st.batch.Ns {
		for _, seed := range st.batch.Seeds {
			cells = append(cells, cell{st.spec, cellOpts(st.batch.Options, n, seed)})
		}
	}
	replayRoot := obs.NewSpanContext()
	replayStart := time.Now()
	syncDur, asyncDur, err := replay(cells, st.refRuns, col, replayRoot, m, res)
	if err != nil {
		return nil, err
	}
	addSpan(col, replayRoot, obs.SpanContext{}, "perfbench.replay", replayStart, time.Since(replayStart), nil)
	m["elect.runmany_efficiency"] = ms(syncDur+asyncDur) / (fleetWorkers * p50)
	fmt.Fprintf(o.out, "# local pass p50 %.3f ms (Workers=%d); fleet ÷ local %.3f\n",
		median(locals), runtime.NumCPU(), m["distrib.overhead_ratio"])
	printLayers(o.out, m)
	bd.print(o.out, "fleet pass, coordinator RunMany over two workers")
	return res, writeTrace(o, "fleet", dedupe(append(workerSpans, col.Spans())...))
}
