package main

// metricDef names one reported metric. For per-layer metrics, layer is the
// module it measures and moves the end-to-end metric (@ workload) a change
// to that layer should move. BENCHMARK.json lists the same names and units.
type metricDef struct {
	name, unit   string
	layer, moves string
}

// endToEnd is what a user of the system sees, measured with the
// benchmark's own tracing off. Every workload reports every one; an
// "operation" is one grid pass (one set of RunMany calls) in sweep and
// fleet, and one HTTP request, send to decoded reply, in serve.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "cells_per_s", unit: "cells/s"},
	{name: "cpu_ms_per_cell", unit: "ms"},
	{name: "op_p50_ms", unit: "ms"},
	{name: "op_tail_ms", unit: "ms"},
}

const (
	atSweep     = "cells_per_s@sweep"
	atFleet     = "cells_per_s@fleet"
	atMiss      = "run_miss_p50_ms@serve"
	atHit       = "run_hit_p50_ms@serve"
	atBatch     = "batch_p50_ms@serve"
	atServeReq  = "req_per_s@serve"
	atServeTail = "req_tail_ms@serve"
	atServeP50  = "req_p50_ms@serve"
	atAll       = "all throughput metrics"
	atNone      = "none (trust in the breakdown)"
)

// perLayer is what the traced run prints. A layer the workload bypasses
// reads 0 there (README.md lists which).
var perLayer = []metricDef{
	{"simsync.ns_per_msg", "ns", "simsync", atSweep + ", " + atMiss},
	{"simsync.allocs_per_cell", "count", "simsync", atSweep + ", " + atMiss},
	{"simsync.bytes_per_cell", "bytes", "simsync", atSweep + ", " + atMiss},
	{"simsync.msgs_per_cell", "count", "simsync", atSweep + ", " + atMiss},
	{"simsync.rounds_per_cell", "count", "simsync", atSweep + ", " + atMiss},
	{"simasync.ns_per_msg", "ns", "simasync", atSweep + ", " + atMiss},
	{"simasync.allocs_per_cell", "count", "simasync", atSweep + ", " + atMiss},
	{"simasync.msgs_per_cell", "count", "simasync", atSweep + ", " + atMiss},
	{"elect.cell_p50_ms.tradeoff", "ms", "elect executor", atSweep},
	{"elect.cell_p50_ms.asynctradeoff", "ms", "elect executor", atSweep},
	{"elect.cell_p50_ms.asyncafekgafni", "ms", "elect executor", atMiss},
	{"elect.runmany_efficiency", "ratio", "elect executor", atSweep},
	{"elect.fingerprint_us", "us", "elect codec", atHit + ", " + atBatch},
	{"elect.encode_us", "us", "elect codec", atHit + ", " + atBatch + ", " + atFleet},
	{"elect.decode_us", "us", "elect codec", atHit + ", " + atBatch + ", " + atFleet},
	{"client.resp_bytes_per_cell", "bytes", "elect codec", atHit + ", " + atFleet},
	{"resultcache.hits", "count", "resultcache", atServeReq},
	{"resultcache.misses", "count", "resultcache", atServeReq},
	{"resultcache.puts", "count", "resultcache", atServeReq},
	{"resultcache.evictions", "count", "resultcache", atServeReq},
	{"resultcache.hit_ratio", "ratio", "resultcache", atServeReq},
	{"jobs.queue_wait_p50_ms", "ms", "jobs", atServeTail},
	{"jobs.queue_wait_tail_ms", "ms", "jobs", atServeTail},
	{"jobs.exec_p50_ms.run", "ms", "jobs", atServeTail},
	{"jobs.exec_p50_ms.batch", "ms", "jobs", atServeTail},
	{"jobs.exec_p50_ms.chunk", "ms", "jobs", atFleet},
	{"service.handler_self_p50_ms", "ms", "service", atHit},
	{"service.chunk_serve_p50_ms", "ms", "service", atFleet},
	{"client.transport_p50_ms", "ms", "elect/client", atServeP50},
	{"client.attempts", "count", "elect/client", atServeP50},
	{"client.retries", "count", "elect/client", atServeP50},
	{"distrib.dispatch_p50_ms", "ms", "distrib", atFleet},
	{"distrib.chunks", "count", "distrib", atFleet},
	{"distrib.retried", "count", "distrib", atFleet},
	{"distrib.useful_ratio", "ratio", "distrib", atFleet},
	{"distrib.worker_busy_ratio", "ratio", "distrib", atFleet},
	{"distrib.overhead_ratio", "ratio", "distrib", atFleet},
	{"runtime.gc_cycles_per_op", "count", "Go runtime", atAll},
	{"runtime.gc_pause_ms", "ms", "Go runtime", atAll},
	{"runtime.alloc_bytes_per_op", "bytes", "Go runtime", atAll},
	{"runtime.heap_live_mb", "MB", "Go runtime", "footprint; no end-to-end metric"},
	{"obs.trace_overhead", "ratio", "obs / benchmark", atNone},
	{"residual_ms", "ms", "obs / benchmark", atNone},
}
