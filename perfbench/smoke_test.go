package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload at reduced size, untraced and traced, and
// checks that each run verifies its outputs and reports every metric the
// benchmark defines.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				o := options{
					seed: 7, seconds: 300 * time.Millisecond, trace: traced,
					root: t.TempDir(), small: true, out: &out,
				}
				res, err := w.run(o)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				if res.attempted == 0 || res.failed != 0 {
					t.Fatalf("%d of %d checks failed\n%s", res.failed, res.attempted, out.String())
				}
				line, err := resultLine(res, traced)
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Correct bool                       `json:"correct"`
					Metrics map[string]json.RawMessage `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(line), &got); err != nil {
					t.Fatal(err)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if !got.Correct || len(got.Metrics) != len(defs) {
					t.Fatalf("result line %s: want correct and %d metrics", line, len(defs))
				}
				if !traced {
					for _, d := range endToEnd {
						if res.metrics[d.name] <= 0 {
							t.Errorf("%s = %v, want > 0", d.name, res.metrics[d.name])
						}
					}
					return
				}
				if !strings.Contains(out.String(), "# residual") {
					t.Errorf("traced run printed no residual row:\n%s", out.String())
				}
				if _, err := os.Stat(traceFile(o, w.name)); err != nil {
					t.Errorf("no chrome trace: %v", err)
				}
			})
		}
	}
}

// TestSweepMatchesBench runs one full sweep pass at the default seed: its
// tradeoff aggregates must equal the committed BENCH rows.
func TestSweepMatchesBench(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table-1 grid")
	}
	var out bytes.Buffer
	st, err := sweepSetup(options{seed: defaultSeed, root: "..", out: &out})
	if err != nil {
		t.Fatal(err)
	}
	if st.bench == nil {
		t.Fatal("reference rows not loaded at the default seed")
	}
	res := &outcome{}
	if _, _, err := st.pass(res, nil); err != nil {
		t.Fatal(err)
	}
	if want := st.cells + len(st.bench); res.attempted != want || res.failed != 0 {
		t.Fatalf("%d of %d checks failed, want 0 of %d", res.failed, res.attempted, want)
	}
}

// TestFlags rejects a bad invocation without printing a result.
func TestFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sweep", "--seconds", "0"},
		{"--workload", "sweep", "--trace", "2"},
	} {
		var out bytes.Buffer
		code, err := run(args, &out)
		if code == 0 || err == nil || strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v: code %d, err %v, output %q", args, code, err, out.String())
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's workloads and metrics in step
// with the ones the benchmark reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the benchmark", i, b.Workloads[i].Name, w.name)
		}
	}
	for _, c := range []struct {
		listed []metric
		defs   []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.listed) != len(c.defs) {
			t.Fatalf("%d metrics in BENCHMARK.json, %d in the benchmark", len(c.listed), len(c.defs))
		}
		for i, d := range c.defs {
			if c.listed[i] != (metric{d.name, d.unit}) {
				t.Errorf("metric %d: %+v in BENCHMARK.json, %s %s in the benchmark", i, c.listed[i], d.name, d.unit)
			}
		}
	}
}
