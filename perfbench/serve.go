package main

import (
	"cmp"
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"cliquelect/elect"
	"cliquelect/elect/client"
	"cliquelect/internal/obs"
	"cliquelect/internal/resultcache"
	"cliquelect/internal/service"
)

// The serve workload is one in-process electd with the configuration
// cmd/electd builds by default (-quiet): request tracing and the event
// journal at default capacity, a 4096-entry result cache, Workers = nproc,
// BatchWorkers = 1. nproc closed-loop clients, each waiting for its reply
// like client.Run users, send a seeded mix: 75% /v1/run on a hot key set
// warmed during set-up, 20% /v1/run with fresh seeds (cache misses that
// run an engine and Put) and 5% /v1/batch over hot keys. Fingerprinting,
// codec, cache, the job queue and HTTP dominate; the engines run only on
// misses, so a change that speeds hits while slowing misses shows here.

var serveSpecs = []string{"tradeoff", "asyncafekgafni"}

// serveSlots is one cycle of the request mix, shuffled per cycle: 15 hits
// (13 at the small size, 2 at the large), 4 misses at the small size and
// one batch. The fixed shares keep the median inside the small hits and
// p90 inside the misses, away from the edges between classes.
var serveSlots = []class{
	hitSmall, hitSmall, hitSmall, hitSmall, hitSmall, hitSmall, hitSmall,
	hitSmall, hitSmall, hitSmall, hitSmall, hitSmall, hitSmall,
	hitLarge, hitLarge,
	miss, miss, miss, miss,
	batch,
}

type class int

const (
	hitSmall class = iota
	hitLarge
	miss
	batch
)

func (c class) String() string {
	return [...]string{"hit", "hit", "miss", "batch"}[c]
}

// serveSizes are the small and large network sizes; batchSeeds how many
// hot seeds one batch covers at each size.
type serveSizes struct {
	small, large, hotSeeds, batchSeeds int
}

func serveShape(small bool) serveSizes {
	if small {
		return serveSizes{small: 64, large: 128, hotSeeds: 4, batchSeeds: 2}
	}
	return serveSizes{small: 256, large: 1024, hotSeeds: 16, batchSeeds: 8}
}

type serveKey struct {
	spec string
	n    int
	seed uint64
}

func (k serveKey) request() client.RunRequest {
	return client.RunRequest{Spec: k.spec, N: k.n, Seed: k.seed}
}

type serveState struct {
	*daemon
	cache *resultcache.Cache
	hot   map[serveKey][]byte // warm-up bytes of every hot key
	seeds []uint64            // the hot seeds
}

// serveSetup starts the daemon on a loopback listener and warms the hot
// key set through the client, keeping each result's bytes.
func serveSetup(o options, shape serveSizes) (*serveState, error) {
	cache := resultcache.New(resultcache.WithMaxEntries(resultcache.DefaultMaxEntries))
	cfg := service.Config{Workers: runtime.NumCPU(), QueueDepth: 256, BatchWorkers: 1, Cache: cache}
	if o.trace {
		// The default ring would drop most of a traced run's spans before
		// the benchmark reads them.
		cfg.TraceSpans = 1 << 16
	}
	d, err := startDaemon(cfg)
	if err != nil {
		return nil, err
	}
	st := &serveState{
		daemon: d, cache: cache,
		hot: map[serveKey][]byte{}, seeds: elect.Seeds(o.seed<<20, shape.hotSeeds),
	}

	ct := newCountingTransport(1)
	defer ct.close()
	c := client.New(st.base, client.WithHTTPClient(&http.Client{Transport: ct}))
	for _, spec := range serveSpecs {
		for _, n := range []int{shape.small, shape.large} {
			for _, seed := range st.seeds {
				k := serveKey{spec, n, seed}
				resp, err := c.Run(context.Background(), k.request())
				if err == nil && (resp.Result == nil || resp.CacheHit || !resp.Result.OK) {
					err = fmt.Errorf("warm-up of %v: unexpected reply", k)
				}
				if err != nil {
					st.close()
					return nil, err
				}
				if st.hot[k], err = elect.EncodeResult(*resp.Result); err != nil {
					st.close()
					return nil, err
				}
			}
		}
	}
	return st, nil
}

// serveOp is one completed request.
type serveOp struct {
	class   class
	lat     time.Duration
	cells   int
	root    obs.SpanContext // traced requests only
	missKey serveKey
	missRes []byte
}

// serveClient is one closed-loop caller.
type serveClient struct {
	c   *client.Client
	ct  *countingTransport
	rng *rand.Rand
	// nextMiss is the seed of the client's next miss; it advances by
	// missStep, the client count, so clients never share a miss seed.
	nextMiss, missStep uint64
}

// drive sends requests until d has elapsed and returns them in order.
func (cl *serveClient) drive(st *serveState, shape serveSizes, d time.Duration, col *obs.SpanCollector, res *outcome, mu *sync.Mutex) []serveOp {
	var ops []serveOp
	slots := append([]class(nil), serveSlots...)
	start := time.Now()
	for time.Since(start) < d {
		cl.rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
		for _, cls := range slots {
			op, ok := cl.one(st, shape, cls, col)
			mu.Lock()
			res.check(ok)
			mu.Unlock()
			ops = append(ops, op)
			if time.Since(start) >= d {
				break
			}
		}
	}
	return ops
}

// one sends a request of class cls, times it from send to decoded reply
// and checks the reply. A request that errors or is refused counts as
// failed.
func (cl *serveClient) one(st *serveState, shape serveSizes, cls class, col *obs.SpanCollector) (serveOp, bool) {
	spec := serveSpecs[cl.rng.IntN(len(serveSpecs))]
	hotSeed := st.seeds[cl.rng.IntN(len(st.seeds))]
	op := serveOp{class: cls, cells: 1}
	ctx := context.Background()
	if col != nil {
		op.root = obs.NewSpanContext()
		ctx = obs.ContextWithSpan(ctx, op.root)
	}
	var (
		ok  bool
		err error
	)
	start := time.Now()
	switch cls {
	case hitSmall, hitLarge:
		n := shape.small
		if cls == hitLarge {
			n = shape.large
		}
		k := serveKey{spec, n, hotSeed}
		var resp *client.RunResponse
		resp, err = cl.c.Run(ctx, k.request())
		op.lat = time.Since(start)
		if err == nil {
			ok = resp.CacheHit && resp.Result != nil && sameBytes(*resp.Result, st.hot[k])
		}
	case miss:
		k := serveKey{spec, shape.small, cl.nextMiss}
		cl.nextMiss += cl.missStep
		var resp *client.RunResponse
		resp, err = cl.c.Run(ctx, k.request())
		op.lat = time.Since(start)
		if err == nil {
			ok = !resp.CacheHit && resp.Result != nil && resp.Result.OK
			if ok {
				op.missKey = k
				op.missRes, err = elect.EncodeResult(*resp.Result)
			}
		}
	case batch:
		seeds := make([]uint64, shape.batchSeeds)
		for i, j := range cl.rng.Perm(len(st.seeds))[:shape.batchSeeds] {
			seeds[i] = st.seeds[j]
		}
		var resp *client.BatchResponse
		resp, err = cl.c.Batch(ctx, client.BatchRequest{
			Spec: spec, Ns: []int{shape.small, shape.large}, Seeds: seeds,
		})
		op.lat = time.Since(start)
		op.cells = 2 * shape.batchSeeds
		if err == nil && resp.Result != nil {
			ok = len(resp.Result.Runs) == op.cells
			for _, r := range resp.Result.Runs {
				ok = ok && sameBytes(r, st.hot[serveKey{spec, r.N, r.Seed}])
			}
		}
	}
	if col != nil {
		addSpan(col, op.root, obs.SpanContext{}, "serve.request", start, op.lat,
			map[string]string{"class": cls.String()})
	}
	return op, ok && err == nil
}

func sameBytes(r elect.Result, want []byte) bool {
	data, err := elect.EncodeResult(r)
	return err == nil && want != nil && string(data) == string(want)
}

// servePhase runs the closed-loop clients for d and returns their
// requests and the phase's wall time.
func servePhase(st *serveState, clients []*serveClient, shape serveSizes, d time.Duration, col *obs.SpanCollector, res *outcome) ([]serveOp, time.Duration) {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		all []serveOp
	)
	start := time.Now()
	for _, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ops := cl.drive(st, shape, d, col, res, &mu)
			mu.Lock()
			defer mu.Unlock()
			all = append(all, ops...)
		}()
	}
	wg.Wait()
	return all, time.Since(start)
}

func runServe(o options) (*outcome, error) {
	shape := serveShape(o.small)
	st, setup, err := setupMedian(setupReps,
		func() (*serveState, error) { return serveSetup(o, shape) },
		func(st *serveState) { st.close() })
	if err != nil {
		return nil, err
	}
	defer st.close()
	workers := runtime.NumCPU()
	var transports []*countingTransport
	defer func() {
		for _, ct := range transports {
			ct.close()
		}
	}()
	newClients := func(round uint64, col *obs.SpanCollector) []*serveClient {
		out := make([]*serveClient, workers)
		for i := range out {
			ct := newCountingTransport(1)
			transports = append(transports, ct)
			opts := []client.ClientOption{client.WithHTTPClient(&http.Client{Transport: ct})}
			if col != nil {
				opts = append(opts, client.WithSpanCollector(col))
			}
			// Miss seeds start past the hot seeds, in a range of their own
			// per round of clients.
			out[i] = &serveClient{
				c: client.New(st.base, opts...), ct: ct,
				rng:      rand.New(rand.NewPCG(o.seed, round<<8|uint64(i))),
				nextMiss: st.seeds[0] + 1<<16 + round<<18 + uint64(i), missStep: uint64(workers),
			}
		}
		return out
	}
	res := &outcome{metrics: map[string]float64{}}
	measure := o.seconds
	if o.trace {
		measure /= 2
	}
	cacheBefore := st.cache.Stats()
	clientsA := newClients(1, nil)
	memBefore, cpuBefore := readMem(), readCPU()
	heap := sampleHeap()
	ops, wall := servePhase(st, clientsA, shape, measure, nil, res)
	heapMedian := heap.median()
	memAfter, cpuAfter := readMem(), readCPU()
	lat := map[string][]float64{}
	cells := 0
	for _, op := range ops {
		l := ms(op.lat)
		lat["all"] = append(lat["all"], l)
		lat[op.class.String()] = append(lat[op.class.String()], l)
		cells += op.cells
	}
	// Requests are far shorter than the 10 ms ticks steal is counted in,
	// so their times stay wall times; the throughput is net of steal.
	steal := stealShare(cpuBefore, cpuAfter)
	ph := phase{
		setup: setup, ops: lat["all"], cells: cells,
		rate: float64(cells) / (wall.Seconds() * (1 - steal)),
		cpu:  cpuAfter.proc - cpuBefore.proc, steal: steal, heap: heapMedian,
	}
	fmt.Fprintf(o.out, "# serve: %d closed-loop clients, %d requests in %.2f s (%d hit, %d miss, %d batch); an operation is one request\n",
		workers, len(ops), wall.Seconds(), len(lat["hit"]), len(lat["miss"]), len(lat["batch"]))
	fmt.Fprintf(o.out, "# req_per_s %.2f; req_p50_ms %.4f; req_tail_ms %.4f (p90); run_hit_p50_ms %.4f; run_miss_p50_ms %.4f; batch_p50_ms %.4f\n",
		float64(len(ops))/wall.Seconds(), median(lat["all"]), quantile(lat["all"], 0.9),
		median(lat["hit"]), median(lat["miss"]), median(lat["batch"]))
	if !o.trace {
		if err := verifyMisses(ops, res); err != nil {
			return nil, err
		}
	}
	ph.print(o.out, res)
	res.metrics = ph.metrics()
	if !o.trace {
		return res, nil
	}

	m := res.metrics
	runtimeMetrics(m, memBefore, memAfter, len(ops))
	col := obs.NewSpanCollector(1 << 18)
	clientsB := newClients(2, col)
	opsB, _ := servePhase(st, clientsB, shape, measure, col, res)
	cacheAfter := st.cache.Stats()
	var latB []float64
	for _, op := range opsB {
		latB = append(latB, ms(op.lat))
	}
	m["obs.trace_overhead"] = mean(latB)/mean(lat["all"]) - 1

	spans := dedupe(col.Spans(), st.srv.Spans().Spans())
	traces := byTrace(spans)
	bd := newBreakdown()
	for _, op := range opsB {
		tr := traces[op.root.Trace]
		var rootSpan obs.Span
		for _, s := range tr {
			if s.Name == "serve.request" {
				rootSpan = s
			}
		}
		if rootSpan.Trace.IsZero() {
			continue
		}
		cls := op.class.String()
		bd.add(rootSpan, tr, func(s obs.Span) string {
			if s.Name == "job.exec" {
				return rowOf(s) + " (" + cls + ")"
			}
			return rowOf(s)
		})
	}
	qw := durations(spans, "queue.wait", nil)
	qwTail, qwQ := tail(qw)
	m["jobs.queue_wait_p50_ms"] = median(qw)
	m["jobs.queue_wait_tail_ms"] = qwTail
	m["jobs.exec_p50_ms.run"] = median(durations(spans, "job.exec", map[string]string{"kind": "run"}))
	m["jobs.exec_p50_ms.batch"] = median(durations(spans, "job.exec", map[string]string{"kind": "batch"}))
	m["service.handler_self_p50_ms"] = selfP50(spans, "http.request", nil)
	m["client.transport_p50_ms"] = median(transportTimes(spans))
	var attempts, retries, reqs, bytes int64
	for _, cl := range append(clientsA, clientsB...) {
		s := cl.c.Stats()
		attempts += s.Attempts
		retries += s.Retries
		reqs += cl.ct.requests.Load()
		bytes += cl.ct.respBytes.Load()
	}
	allCells := cells
	for _, op := range opsB {
		allCells += op.cells
	}
	m["client.attempts"] = float64(attempts) / float64(len(ops)+len(opsB))
	m["client.retries"] = float64(retries)
	m["client.resp_bytes_per_cell"] = float64(bytes) / float64(allCells)
	hits, missN := cacheAfter.Hits-cacheBefore.Hits, cacheAfter.Misses-cacheBefore.Misses
	m["resultcache.hits"] = float64(hits)
	m["resultcache.misses"] = float64(missN)
	m["resultcache.puts"] = float64(cacheAfter.Puts - cacheBefore.Puts)
	m["resultcache.evictions"] = float64(cacheAfter.Evictions - cacheBefore.Evictions)
	if hits+missN > 0 {
		m["resultcache.hit_ratio"] = float64(hits) / float64(hits+missN)
	}
	m["residual_ms"] = bd.residual()

	// Engine and codec costs from outside: replay the hot keys and a
	// sample of the misses through elect.Run, checking each against the
	// bytes the daemon served.
	cellsR, want, err := serveReplayCells(st, append(ops, opsB...))
	if err != nil {
		return nil, err
	}
	replayRoot := obs.NewSpanContext()
	replayStart := time.Now()
	if _, _, err := replay(cellsR, want, col, replayRoot, m, res); err != nil {
		return nil, err
	}
	addSpan(col, replayRoot, obs.SpanContext{}, "perfbench.replay", replayStart, time.Since(replayStart), nil)
	fmt.Fprintf(o.out, "# queue wait tail %s over %d jobs; %d http tries for %d requests\n", qwQ, len(qw), attempts, reqs)
	printLayers(o.out, m)
	bd.print(o.out, "serve request, send to decoded reply")
	return res, writeTrace(o, "serve", dedupe(col.Spans(), st.srv.Spans().Spans()))
}

// missSample caps how many served misses are replayed for checking.
const missSample = 48

// sampledMisses is an evenly spaced sample of at most missSample of the
// served misses.
func sampledMisses(ops []serveOp) []serveOp {
	var misses []serveOp
	for _, op := range ops {
		if op.missRes != nil {
			misses = append(misses, op)
		}
	}
	var out []serveOp
	step := max(1, len(misses)/missSample)
	for i := 0; i < len(misses); i += step {
		out = append(out, misses[i])
	}
	return out
}

// verifyMisses replays a sample of the served misses locally; each must
// match the daemon's bytes.
func verifyMisses(ops []serveOp, res *outcome) error {
	for _, op := range sampledMisses(ops) {
		spec, opts, err := op.missKey.request().Resolve()
		if err != nil {
			return err
		}
		r, err := elect.Run(spec, opts...)
		if err != nil {
			return err
		}
		res.check(sameBytes(r, op.missRes))
	}
	return nil
}

// serveReplayCells lists the hot keys and a sample of the misses as
// replay cells, with the bytes the daemon served for each.
func serveReplayCells(st *serveState, ops []serveOp) ([]cell, [][]byte, error) {
	var cells []cell
	var want [][]byte
	add := func(k serveKey, data []byte) error {
		spec, opts, err := k.request().Resolve()
		if err != nil {
			return err
		}
		cells = append(cells, cell{spec, opts})
		want = append(want, data)
		return nil
	}
	for _, spec := range serveSpecs {
		for _, k := range sortedKeys(st.hot, spec) {
			if err := add(k, st.hot[k]); err != nil {
				return nil, nil, err
			}
		}
	}
	for _, op := range sampledMisses(ops) {
		if err := add(op.missKey, op.missRes); err != nil {
			return nil, nil, err
		}
	}
	return cells, want, nil
}

// sortedKeys lists the hot keys of one spec in (n, seed) order.
func sortedKeys(hot map[serveKey][]byte, spec string) []serveKey {
	var keys []serveKey
	for k := range hot {
		if k.spec == spec {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(a, b serveKey) int {
		return cmp.Or(cmp.Compare(a.n, b.n), cmp.Compare(a.seed, b.seed))
	})
	return keys
}
