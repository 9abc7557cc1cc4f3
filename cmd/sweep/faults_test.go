package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func sweepCSV(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(append(args, "-csv"), &buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// csvRows parses CSV output into one column→cell map per row, skipping the
// "#" comment lines (fits, cache stats) around the table.
func csvRows(t *testing.T, csv string) []map[string]string {
	t.Helper()
	var header []string
	var rows []map[string]string
	for _, line := range strings.Split(strings.TrimSpace(csv), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if header == nil {
			header = fields
			continue
		}
		if len(fields) != len(header) {
			t.Fatalf("row %q has %d cells, header %d", line, len(fields), len(header))
		}
		row := make(map[string]string, len(fields))
		for i, f := range fields {
			row[header[i]] = f
		}
		rows = append(rows, row)
	}
	return rows
}

// successRate converts a "successes/runs" cell to a rate.
func successRate(t *testing.T, cell string) float64 {
	t.Helper()
	s, r, ok := strings.Cut(cell, "/")
	if !ok {
		t.Fatalf("bad success cell %q", cell)
	}
	num, err1 := strconv.Atoi(s)
	den, err2 := strconv.Atoi(r)
	if err1 != nil || err2 != nil || den == 0 {
		t.Fatalf("bad success cell %q", cell)
	}
	return float64(num) / float64(den)
}

// faultsweepSeed is 1 − 3·104729 mod 2⁶⁴. With -k 3, sweep's per-k seed
// base (seed + k·104729) wraps to 1, the fixed seed base of the former
// faultsweep command, so its pinned tables replay cell for cell.
const faultsweepSeed = "18446744073709237430"

// TestSweepMatchesFaultsweepGoldens replays the resilience tables captured
// from the former faultsweep command (testdata/faultsweep_*.csv; the flags
// are in each case below) and checks every row's success rate, cost, time
// and fault counters.
func TestSweepMatchesFaultsweepGoldens(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"faultsweep_dup.csv", []string{"-algo", "tradeoff,asynctradeoff", "-ns", "64,128", "-seeds", "20",
			"-drop", "0,0.1", "-crash", "0,0.2", "-faults", "dup=0.02"}},
		{"faultsweep_all.csv", []string{"-algo", "all", "-ns", "64,128", "-seeds", "20",
			"-drop", "0,0.05,0.1,0.2"}},
		{"faultsweep_ring.csv", []string{"-algo", "kpprt", "-topo", "ring", "-ns", "64,128", "-seeds", "20",
			"-drop", "0,0.05,0.1,0.2"}},
	} {
		data, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		want := csvRows(t, string(data))
		got := csvRows(t, sweepCSV(t, append(tc.args, "-k", "3", "-seed", faultsweepSeed)...))
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, golden has %d", tc.golden, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if _, ok := g["algo"]; !ok {
				g["algo"] = tc.args[1] // single-algorithm sweeps have no algo column
			}
			g["success"] = fmt.Sprintf("%.2f", successRate(t, g["success"]))
			for col, wv := range w {
				if gv, ok := g[col]; !ok || gv != wv {
					t.Errorf("%s row %d: %s = %q, golden %q", tc.golden, i, col, gv, wv)
				}
			}
		}
	}
}

// TestResilienceCurves: for the paper's headline sync spec and one async
// spec, the election-success rate is 1.0 at drop rate 0 and degrades
// monotonically (within noise) as the rate rises — on both simulators.
func TestResilienceCurves(t *testing.T) {
	cases := []struct {
		algo  string
		drops string
	}{
		{"tradeoff", "0,0.02,0.08,0.3"},
		{"asynctradeoff", "0,0.002,0.01,0.05"},
	}
	for _, tc := range cases {
		rows := csvRows(t, sweepCSV(t,
			"-algo", tc.algo, "-ns", "48", "-drop", tc.drops, "-seeds", "16"))
		if len(rows) != 4 {
			t.Fatalf("%s: %d rows, want 4", tc.algo, len(rows))
		}
		rates := make([]float64, len(rows))
		for i, r := range rows {
			rates[i] = successRate(t, r["success"])
		}
		if rates[0] != 1 {
			t.Errorf("%s: success %v at drop rate 0, want 1.0", tc.algo, rates[0])
		}
		const noise = 0.1
		for i := 1; i < len(rates); i++ {
			if rates[i] > rates[i-1]+noise {
				t.Errorf("%s: success rose from %v to %v between drop rates (rows %d→%d)",
					tc.algo, rates[i-1], rates[i], i-1, i)
			}
		}
		if last := rates[len(rates)-1]; last >= rates[0] {
			t.Errorf("%s: success did not degrade across the sweep: %v", tc.algo, rates)
		}
	}
}

// TestSweepDeterministic: a fault sweep's table is a pure function of its
// flags — two invocations emit identical bytes.
func TestSweepDeterministic(t *testing.T) {
	args := []string{"-algo", "tradeoff,asynctradeoff", "-ns", "32",
		"-drop", "0,0.1", "-crash", "0,0.2", "-seeds", "6", "-faults", "dup=0.02"}
	if a, b := sweepCSV(t, args...), sweepCSV(t, args...); a != b {
		t.Fatalf("same flags, different tables:\n%s\n---\n%s", a, b)
	}
}

func TestSweepAdaptive(t *testing.T) {
	rows := csvRows(t, sweepCSV(t, "-algo", "tradeoff", "-ns", "24", "-seeds", "4",
		"-faults", "adaptive=1"))
	if len(rows) != 1 || rows[0]["crashed"] == "" {
		t.Fatalf("adaptive sweep rows: %v", rows)
	}
}

// TestSweepFaultsJSON: fault rows stay distinct in the BENCH json and in
// -compare — a fault sweep matches itself row for row, and a fault-free
// sweep of the same (algo, k, n) matches none of its rows.
func TestSweepFaultsJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "faults.json")
	args := []string{"-algo", "tradeoff", "-ns", "32", "-seeds", "2",
		"-drop", "0,0.1", "-crash", "0,0.2", "-faults", "dup=0.02"}
	if err := run(append(args, "-json", path), io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var bench benchFile
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range bench.Rows {
		seen[r.Faults] = true
	}
	for _, want := range []string{"dup=0.02", "dup=0.02,drop=0.1", "dup=0.02,crash=0.2", "dup=0.02,crash=0.2,drop=0.1"} {
		if !seen[want] {
			t.Errorf("no row with faults %q in %s", want, data)
		}
	}
	if len(bench.Rows) != 4 {
		t.Errorf("%d rows, want 4", len(bench.Rows))
	}
	var out bytes.Buffer
	if err := run(append(args, "-compare", path), &out); err != nil {
		t.Fatalf("self-comparison failed: %v", err)
	}
	if !strings.Contains(out.String(), "4/4 rows matched") {
		t.Fatalf("self-comparison did not match every row:\n%s", out.String())
	}
	if err := run([]string{"-algo", "tradeoff", "-ns", "32", "-seeds", "2", "-compare", path}, io.Discard); err == nil {
		t.Fatal("fault-free sweep matched fault rows")
	}
}

func TestSweepFaultFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-drop", "0,x"},
		{"-crash", "y"},
		{"-faults", "bogus=1"},
		{"-faults", "drop=0.3"}, // the sweep axes own crash/drop rates
		{"-faults", "crash=0.3"},
		{"-policy", "bogus"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestSweepCacheReplay: -cache persists every fault cell's runs on disk,
// leaves the table untouched cold or warm, and the warm invocation replays
// every run.
func TestSweepCacheReplay(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-algo", "tradeoff", "-k", "3", "-ns", "32", "-seeds", "2", "-drop", "0,0.1"}
	table := func(csv string) string {
		var rows []string
		for _, line := range strings.Split(csv, "\n") {
			if !strings.HasPrefix(line, "#") {
				rows = append(rows, line)
			}
		}
		return strings.Join(rows, "\n")
	}
	plain := sweepCSV(t, args...)
	cold := sweepCSV(t, append(args, "-cache", dir)...)
	entries, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err != nil || len(entries) != 4 {
		t.Fatalf("cache dir holds %d entries (err %v), want 4", len(entries), err)
	}
	warm := sweepCSV(t, append(args, "-cache", dir)...)
	if table(plain) != table(cold) || table(cold) != table(warm) {
		t.Fatalf("cache changed the table:\n%s\n---\n%s\n---\n%s", plain, cold, warm)
	}
	if !strings.Contains(warm, ", 0 misses") {
		t.Fatalf("warm pass was not all hits:\n%s", warm)
	}
}

// TestFaultsweepFleetMatchesLocal: a fault sweep dispatched to two electd
// workers, its per-cell plans riding the wire as strings, prints the same
// CSV table and writes the same BENCH json bytes as a purely local run.
func TestFaultsweepFleetMatchesLocal(t *testing.T) {
	fleet := startWorkers(t, 2)
	dir := t.TempDir()
	args := []string{"-algo", "tradeoff,asynctradeoff", "-ns", "32,48", "-seeds", "4",
		"-drop", "0,0.1", "-crash", "0,0.25", "-faults", "dup=0.05"}
	if local, remote := sweepCSV(t, args...), sweepCSV(t, append(args, "-workers", fleet)...); local != remote {
		t.Fatalf("fleet CSV differs from local:\n%s\nvs\n%s", remote, local)
	}
	localPath := filepath.Join(dir, "local.json")
	fleetPath := filepath.Join(dir, "fleet.json")
	if err := run(append(args, "-json", localPath), io.Discard); err != nil {
		t.Fatalf("local: %v", err)
	}
	if err := run(append(args, "-json", fleetPath, "-workers", fleet), io.Discard); err != nil {
		t.Fatalf("fleet: %v", err)
	}
	localJSON, err := os.ReadFile(localPath)
	if err != nil {
		t.Fatal(err)
	}
	fleetJSON, err := os.ReadFile(fleetPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(localJSON, fleetJSON) {
		t.Fatalf("fleet BENCH json differs from local:\n%s\nvs\n%s", fleetJSON, localJSON)
	}
}
