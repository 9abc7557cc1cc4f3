// Command perfbench is the repository's benchmark. It runs one named
// workload in a single process against the public entry points of the
// cliquelect module, checks every output, and prints the end-to-end
// metrics by name with their units. A traced run (--trace 1) prints the
// per-layer metrics instead, plus a breakdown whose layer rows sum to
// the end-to-end figure with the unexplained residual as its own row.
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// See README.md in this directory for the workloads, the metric
// definitions and the layer map.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeed reproduces BENCH_2026-07-30.json: cmd/sweep's master seed.
const defaultSeed = 1

// setupReps is how many times each workload builds its set-up; setup_s is
// the median, and only the last instance is measured.
const setupReps = 3

// options is everything a workload run depends on.
type options struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	// root is the checkout root: the reference BENCH json is read from
	// it, and the traced run writes its Chrome trace under
	// root/.bench_build.
	root string
	// small shrinks every grid and hot set for the smoke test.
	small bool
	// out receives the human-readable report.
	out io.Writer
}

// outcome is what one workload run reports.
type outcome struct {
	attempted, failed int
	// metrics holds the end-to-end metrics (untraced run) or the per-layer
	// metrics (traced run), by name.
	metrics map[string]float64
}

// check counts one verified operation; a false ok is a failed one.
func (o *outcome) check(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
	}
}

type workload struct {
	name string
	run  func(options) (*outcome, error)
}

var workloads = []workload{
	{"sweep", runSweep},
	{"serve", runServe},
	{"fleet", runFleet},
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run: sweep, serve or fleet")
		seed    = fs.Uint64("seed", defaultSeed, "workload seed; every input is generated from it")
		seconds = fs.Float64("seconds", 30, "length of the measured phase")
		trace   = fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *seconds <= 0 {
		return 2, errors.New("--seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return 2, errors.New("--trace must be 0 or 1")
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return 2, fmt.Errorf("unknown --workload %q (want sweep, serve or fleet)", *name)
	}
	root, err := os.Getwd()
	if err != nil {
		return 1, err
	}
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	o := options{
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, root: root, out: out,
	}
	printMachine(out, w.name, o)
	res, err := w.run(o)
	if err != nil {
		return 1, err
	}
	line, err := resultLine(res, o.trace)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(out, line)
	if res.failed > 0 {
		return 1, fmt.Errorf("%d of %d checked operations failed", res.failed, res.attempted)
	}
	return 0, nil
}

// printMachine prints the facts a reader needs to compare two runs.
func printMachine(w io.Writer, name string, o options) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%.1f trace=%t\n",
		name, o.seed, o.seconds.Seconds(), o.trace)
	fmt.Fprintf(w, "# machine: nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resultLine renders the final JSON line: every end-to-end metric of an
// untraced run, or every per-layer metric of a traced one. A per-layer
// metric the workload never touches reads 0 (the layer did no work); a
// missing end-to-end metric is a bug in the workload.
func resultLine(res *outcome, traced bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok && !traced {
			return "", fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		metrics[d.name] = value{v, d.unit}
	}
	data, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	return string(data), err
}

// traceFile is where a traced run writes its merged Chrome trace.
func traceFile(o options, name string) string {
	return filepath.Join(o.root, ".bench_build", "trace-"+name+".json")
}
