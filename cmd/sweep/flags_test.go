package main

import (
	"math"
	"testing"

	"cliquelect/elect"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts(" 1, 2,3 ")
	if err != nil || len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("got %v, %v", got, err)
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Fatal("bad list accepted")
	}
}

func TestParseFloats(t *testing.T) {
	got, err := parseFloats("0, 0.5 ,1")
	if err != nil || len(got) != 3 || got[1] != 0.5 {
		t.Fatalf("got %v, %v", got, err)
	}
	if _, err := parseFloats("0,y"); err == nil {
		t.Fatal("bad list accepted")
	}
}

func TestParseWorkers(t *testing.T) {
	for _, tc := range []struct {
		in    string
		local int
		fleet []string
		ok    bool
	}{
		{"", 0, nil, true},
		{"0", 0, nil, true},
		{"8", 8, nil, true},
		{" 4 ", 4, nil, true},
		{"-1", 0, nil, false},
		{"host1:8090", 0, []string{"host1:8090"}, true},
		{"h1:1, h2:2 ,h3:3", 0, []string{"h1:1", "h2:2", "h3:3"}, true},
		{"http://h1:8090,https://h2", 0, []string{"http://h1:8090", "https://h2"}, true},
		{"h1,,h2", 0, nil, false},
		{",", 0, nil, false},
		// Duplicate hosts: dispatching twice to one daemon halves the fleet.
		{"h1:1,h2:2,h1:1", 0, nil, false},
		{"h1:1,h1:1", 0, nil, false},
		// Bare integers mixed into a host list: almost certainly a mistyped
		// worker count, never a hostname.
		{"4,8", 0, nil, false},
		{"h1:1,16", 0, nil, false},
		{" 16 ,h1:1", 0, nil, false},
		// Same host on different ports is two daemons, not a duplicate.
		{"h1:1,h1:2", 0, []string{"h1:1", "h1:2"}, true},
	} {
		local, fleet, err := parseWorkers(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("parseWorkers(%q) err = %v, ok = %v", tc.in, err, tc.ok)
			continue
		}
		if !tc.ok {
			continue
		}
		if local != tc.local || len(fleet) != len(tc.fleet) {
			t.Errorf("parseWorkers(%q) = %d, %v", tc.in, local, fleet)
			continue
		}
		for i := range fleet {
			if fleet[i] != tc.fleet[i] {
				t.Errorf("parseWorkers(%q)[%d] = %q, want %q", tc.in, i, fleet[i], tc.fleet[i])
			}
		}
	}
}

func TestSweepAllSelectsQualifiedSpecs(t *testing.T) {
	specs, err := resolveSpecs("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) == 0 {
		t.Fatal("no fault-qualified specs")
	}
	for _, s := range specs {
		if !s.FaultTolerant {
			t.Errorf("%s selected by \"all\" without FaultTolerant", s.Name)
		}
		if s.Name == "lasvegas" {
			t.Error("lasvegas selected despite wedging under faults")
		}
	}
}

// TestCellFaults: the cell's fault string parses back to exactly the -crash
// and -drop rates, which is what keeps local and fleet cells identical.
func TestCellFaults(t *testing.T) {
	for _, tc := range []struct {
		base        string
		crash, drop float64
		want        string
	}{
		{"", 0, 0, ""},
		{"", 0.25, 0, "crash=0.25"},
		{"", 0, 0.1, "drop=0.1"},
		{"dup=0.05", 0.1, 0.2, "dup=0.05,crash=0.1,drop=0.2"},
		{" dup=0.05 ", 0, 0.1, "dup=0.05,drop=0.1"},
		{"", 1.0 / 3, math.Nextafter(0.3, 1), "crash=0.3333333333333333,drop=0.30000000000000004"},
	} {
		got := cellFaults(tc.base, tc.crash, tc.drop)
		if got != tc.want {
			t.Errorf("cellFaults(%q, %v, %v) = %q, want %q", tc.base, tc.crash, tc.drop, got, tc.want)
		}
		plan, err := elect.ParseFaults(got)
		if err != nil {
			t.Fatalf("cellFaults(%q, %v, %v) unparseable: %v", tc.base, tc.crash, tc.drop, err)
		}
		if plan.CrashRate != tc.crash || plan.DropRate != tc.drop {
			t.Errorf("round trip lost rates: %+v", plan)
		}
	}
}
