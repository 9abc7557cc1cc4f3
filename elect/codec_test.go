package elect

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// TestCodecGoldenWire pins the v1 wire form byte for byte: field names,
// field order and enum spellings. If this test breaks, the change is a wire
// format break — cached results and electd clients see it too.
func TestCodecGoldenWire(t *testing.T) {
	r := Result{
		Algorithm: "tradeoff", Model: Sync, Engine: EngineSync,
		N: 2, Seed: 7, IDs: []int64{5, 9},
		Leader: 1, LeaderID: 9, Messages: 3, Words: 4, Rounds: 2,
		PerRound:  []int64{0, 3},
		Decisions: []Decision{NonLeader, Leader},
		AllAwake:  true, OK: true,
	}
	data, err := EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"algorithm":"tradeoff","model":"sync","engine":"sync","n":2,"seed":7,` +
		`"ids":[5,9],"leader":1,"leader_id":9,"messages":3,"words":4,"rounds":2,` +
		`"per_round":[0,3],"time_units":0,"decisions":["non-leader","leader"],` +
		`"all_awake":true,"truncated":false,"timed_out":false,"dropped":0,` +
		`"duplicated":0,"ok":true}`
	if string(data) != want {
		t.Errorf("wire form drifted:\n got %s\nwant %s", data, want)
	}
}

type codecCase struct {
	name string
	r    Result
}

// codecCases returns the Results the codec tests exercise: a real run of
// every registered spec, runs that fill the optional fields (topology,
// faults, both traces), and synthetic edge cases of the encoding rules.
func codecCases(t testing.TB) []codecCase {
	t.Helper()
	var cases []codecCase
	add := func(name string, opts ...Option) {
		res, err := Run(mustSpec(t, name), opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, codecCase{name, res})
	}
	for _, spec := range Registry() {
		opts := []Option{WithN(16), WithSeed(3)}
		if spec.Name == "advwake" || spec.Name == "spreadelect" || spec.Name == "asynctradeoff" ||
			spec.Name == "asynclinear" {
			opts = append(opts, WithWake(3))
		}
		add(spec.Name, opts...)
	}
	add("kpprt", WithN(16), WithSeed(3), WithTopology("ring"))
	add("tradeoff", WithN(32), WithSeed(3),
		WithFaults(FaultPlan{CrashRate: 0.2, DropRate: 0.1, DupRate: 0.1}))
	add("tradeoff", WithN(16), WithSeed(3), WithTrace(), WithRoundTrace())
	add("asynctradeoff", WithN(16), WithSeed(3), WithParams(Params{K: 2}),
		WithDelays(DelayUniform), WithRoundTrace())

	base := Result{Algorithm: "synthetic", Model: Async, Engine: EngineLive, N: 2,
		IDs: []int64{3, -4}, Decisions: []Decision{Undecided, Leader}}
	synth := func(name string, edit func(*Result)) {
		r := base
		edit(&r)
		cases = append(cases, codecCase{name, r})
	}
	synth("kinds 2 and 10", func(r *Result) {
		r.RoundTrace = []RoundStat{{Round: 1, Kinds: map[uint8]int64{2: 5, 10: 7, 255: 1}}}
	})
	synth("html and separators", func(r *Result) {
		r.Algorithm = "a<b>&\"c\\ \u2028\u2029\n\t\x01\x7fé"
		r.Topo = "<ring>"
	})
	synth("tiny time", func(r *Result) { r.TimeUnits = 1e-7 })
	synth("huge time", func(r *Result) { r.TimeUnits = 1e21 })
	synth("negative time", func(r *Result) { r.TimeUnits = -123.456 })
	synth("nil slices", func(r *Result) { r.IDs, r.Decisions = nil, nil })
	synth("empty slices", func(r *Result) { r.IDs, r.Decisions = []int64{}, []Decision{} })
	synth("cut short", func(r *Result) { r.Truncated, r.TimedOut = true, true })
	synth("no leader", func(r *Result) {
		r.Leader, r.LeaderID, r.Seed = -1, math.MinInt64, math.MaxUint64
		r.Messages, r.Engine = math.MaxInt64, EngineAuto
	})
	return cases
}

// TestCodecRoundTrip checks the hand codec against the encoding/json
// reference (resultJSON) byte for byte on every codec case, and that each
// case decodes back to the value it encoded.
func TestCodecRoundTrip(t *testing.T) {
	for _, tc := range codecCases(t) {
		data, err := EncodeResult(tc.r)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := json.Marshal(resultJSON(tc.r))
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("%s: encoding differs from the reference:\n got %s\nwant %s", tc.name, data, want)
		}
		back, err := DecodeResult(data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(tc.r, back) {
			t.Errorf("%s: round trip diverged:\n in  %+v\n out %+v", tc.name, tc.r, back)
		}
	}
}

// TestCodecCasesCoverFields fails when some field of Result (or of its
// nested RoundStat and TraceSummary) is zero in every codec case: a field
// added to Result must be added to the hand codec and to a case here.
func TestCodecCasesCoverFields(t *testing.T) {
	covered := map[string]bool{}
	var walk func(prefix string, v reflect.Value)
	walk = func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			name, f := prefix+v.Type().Field(i).Name, v.Field(i)
			if !f.IsZero() {
				covered[name] = true
			} else if _, ok := covered[name]; !ok {
				covered[name] = false
			}
			switch {
			case f.Kind() == reflect.Pointer && f.Type().Elem().Kind() == reflect.Struct && !f.IsNil():
				walk(name+".", f.Elem())
			case f.Kind() == reflect.Slice && f.Type().Elem().Kind() == reflect.Struct:
				for j := 0; j < f.Len(); j++ {
					walk(name+".", f.Index(j))
				}
			}
		}
	}
	for _, tc := range codecCases(t) {
		walk("", reflect.ValueOf(tc.r))
	}
	for name, ok := range covered {
		if !ok {
			t.Errorf("Result field %s is zero in every codec case", name)
		}
	}
	for _, name := range []string{"Trace.PortOpens", "RoundTrace.Kinds"} {
		if !covered[name] {
			t.Errorf("no codec case fills %s", name)
		}
	}
}

// FuzzDecodeResult checks the decoder's fast path against the reference:
// DecodeResult never panics, errors exactly when encoding/json on
// resultJSON errors, and otherwise returns the same value.
func FuzzDecodeResult(f *testing.F) {
	for _, tc := range codecCases(f) {
		data, err := EncodeResult(tc.r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeResult(data)
		var want resultJSON
		wantErr := json.Unmarshal(data, &want)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("DecodeResult error %v, reference error %v", err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, Result(want)) {
			t.Fatalf("DecodeResult diverged from the reference:\n got  %+v\n want %+v", got, Result(want))
		}
	})
}

// BenchmarkResultCodec times EncodeResult and DecodeResult on real tradeoff
// results, the payload of every cache hit and wire reply.
func BenchmarkResultCodec(b *testing.B) {
	for _, n := range []int{256, 1024} {
		res, err := Run(mustSpec(b, "tradeoff"), WithN(n), WithSeed(1))
		if err != nil {
			b.Fatal(err)
		}
		data, err := EncodeResult(res)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("encode/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for b.Loop() {
				if _, err := EncodeResult(res); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("decode/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for b.Loop() {
				if _, err := DecodeResult(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestCodecBatchRoundTrip(t *testing.T) {
	spec, err := Lookup("tradeoff")
	if err != nil {
		t.Fatal(err)
	}
	batch, err := RunMany(spec, Batch{Ns: []int{16, 32}, Seeds: Seeds(1, 3)})
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeBatchResult(batch)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBatchResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch, back) {
		t.Errorf("batch round trip diverged")
	}
}

func TestCodecEnumErrors(t *testing.T) {
	for _, bad := range []string{`{"model":"turbo"}`, `{"engine":"warp"}`, `{"decisions":["maybe"]}`} {
		if _, err := DecodeResult([]byte(bad)); err == nil {
			t.Errorf("decoded %s without error", bad)
		}
	}
	var r Result // invalid zero Model
	if _, err := json.Marshal(r); err == nil {
		t.Error("marshaled a zero (invalid) Model without error")
	}
	valid := Result{Model: Sync}
	for name, edit := range map[string]func(*Result){
		"zero model":    func(r *Result) { r.Model = 0 },
		"engine 9":      func(r *Result) { r.Engine = 9 },
		"decision 7":    func(r *Result) { r.Decisions = []Decision{Leader, 7} },
		"NaN time":      func(r *Result) { r.TimeUnits = math.NaN() },
		"infinite time": func(r *Result) { r.TimeUnits = math.Inf(-1) },
	} {
		r := valid
		edit(&r)
		if _, err := json.Marshal(resultJSON(r)); err == nil {
			t.Errorf("%s: the reference encoded it", name)
		}
		if _, err := EncodeResult(r); err == nil {
			t.Errorf("%s: encoded without error", name)
		}
	}
}
