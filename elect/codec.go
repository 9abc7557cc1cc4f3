package elect

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// This file is the stable JSON wire codec for Result and BatchResult: the
// byte format stored by the result cache, written by cmd/sweep -json
// consumers, and served by the electd daemon. The format is versioned by
// convention rather than by envelope: field names and enum spellings below
// are frozen (v1); additions are allowed, renames and retypes are not.
// Encoding is canonical — the same Result always encodes to the same bytes —
// which is what lets the cache promise byte-identical replays of
// deterministic runs.
//
// Result has a hand-written codec (Result.MarshalJSON, Result.UnmarshalJSON)
// because results are O(n) bytes and sit on every cache hit. Its canonical
// bytes are pinned by a differential test against the v1 reference:
// encoding/json applied to resultJSON, the method-less shadow of Result. The
// decoder reads the canonical layout directly and hands any other input to
// that reference, so what decodes and what errors never differs from it.
// Adding a field to Result means adding it to both halves of the codec.

// MarshalText encodes the model as its name ("sync" or "async").
func (m Model) MarshalText() ([]byte, error) {
	if err := m.checkWire(); err != nil {
		return nil, err
	}
	return []byte(m.String()), nil
}

func (m Model) checkWire() error {
	if m != Sync && m != Async {
		return fmt.Errorf("elect: cannot encode invalid model %d", int(m))
	}
	return nil
}

// UnmarshalText decodes a model name written by MarshalText.
func (m *Model) UnmarshalText(text []byte) error {
	switch string(text) {
	case "sync":
		*m = Sync
	case "async":
		*m = Async
	default:
		return fmt.Errorf("elect: unknown model %q (sync, async)", text)
	}
	return nil
}

// MarshalText encodes the engine as its name ("auto", "sync", "async",
// "live").
func (e Engine) MarshalText() ([]byte, error) {
	if err := e.checkWire(); err != nil {
		return nil, err
	}
	return []byte(e.String()), nil
}

func (e Engine) checkWire() error {
	if e < EngineAuto || e > EngineLive {
		return fmt.Errorf("elect: cannot encode invalid engine %d", int(e))
	}
	return nil
}

// UnmarshalText decodes an engine name; it accepts exactly what ParseEngine
// accepts.
func (e *Engine) UnmarshalText(text []byte) error {
	v, err := ParseEngine(string(text))
	if err != nil {
		return err
	}
	*e = v
	return nil
}

// MarshalText encodes the decision as its name ("undecided", "leader",
// "non-leader").
func (d Decision) MarshalText() ([]byte, error) {
	if err := d.checkWire(); err != nil {
		return nil, err
	}
	return []byte(d.String()), nil
}

func (d Decision) checkWire() error {
	if d > NonLeader {
		return fmt.Errorf("elect: cannot encode invalid decision %d", int(d))
	}
	return nil
}

// UnmarshalText decodes a decision name written by MarshalText.
func (d *Decision) UnmarshalText(text []byte) error {
	switch string(text) {
	case "undecided":
		*d = Undecided
	case "leader":
		*d = Leader
	case "non-leader":
		*d = NonLeader
	default:
		return fmt.Errorf("elect: unknown decision %q (undecided, leader, non-leader)", text)
	}
	return nil
}

// EncodeResult renders r in the stable v1 wire form. The encoding is
// canonical: equal Results produce identical bytes.
func EncodeResult(r Result) ([]byte, error) {
	return r.MarshalJSON()
}

// DecodeResult parses wire bytes written by EncodeResult. Unknown fields are
// ignored, so older binaries can read results written by newer ones.
func DecodeResult(data []byte) (Result, error) {
	var r Result
	if err := r.UnmarshalJSON(data); err != nil {
		return Result{}, fmt.Errorf("elect: decoding result: %w", err)
	}
	return r, nil
}

// EncodeBatchResult renders b in the stable v1 wire form (canonical bytes,
// like EncodeResult).
func EncodeBatchResult(b *BatchResult) ([]byte, error) {
	return json.Marshal(b)
}

// DecodeBatchResult parses wire bytes written by EncodeBatchResult.
func DecodeBatchResult(data []byte) (*BatchResult, error) {
	var b BatchResult
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("elect: decoding batch result: %w", err)
	}
	return &b, nil
}

// resultJSON is Result without its codec methods: encoding/json applied to
// it is the v1 reference that Result.MarshalJSON reproduces byte for byte
// and that Result.UnmarshalJSON falls back to.
type resultJSON Result

// MarshalJSON writes r in the canonical v1 wire form: every field in
// declaration order under its json tag, with encoding/json's omitempty
// rules, string escaping and number formats.
func (r Result) MarshalJSON() ([]byte, error) {
	if err := r.Model.checkWire(); err != nil {
		return nil, err
	}
	if err := r.Engine.checkWire(); err != nil {
		return nil, err
	}
	if math.IsInf(r.TimeUnits, 0) || math.IsNaN(r.TimeUnits) {
		return nil, fmt.Errorf("elect: cannot encode time_units %v", r.TimeUnits)
	}
	b := make([]byte, 0, r.wireSizeHint())
	b = appendWireString(append(b, `{"algorithm":`...), r.Algorithm)
	b = append(append(append(b, `,"model":"`...), r.Model.String()...), '"')
	b = append(append(append(b, `,"engine":"`...), r.Engine.String()...), '"')
	b = strconv.AppendInt(append(b, `,"n":`...), int64(r.N), 10)
	b = strconv.AppendUint(append(b, `,"seed":`...), r.Seed, 10)
	b = appendWireInts(append(b, `,"ids":`...), r.IDs)
	b = strconv.AppendInt(append(b, `,"leader":`...), int64(r.Leader), 10)
	b = strconv.AppendInt(append(b, `,"leader_id":`...), r.LeaderID, 10)
	b = strconv.AppendInt(append(b, `,"messages":`...), r.Messages, 10)
	b = strconv.AppendInt(append(b, `,"words":`...), r.Words, 10)
	b = strconv.AppendInt(append(b, `,"rounds":`...), int64(r.Rounds), 10)
	if len(r.PerRound) > 0 {
		b = appendWireInts(append(b, `,"per_round":`...), r.PerRound)
	}
	b = appendWireFloat(append(b, `,"time_units":`...), r.TimeUnits)
	if r.Decisions == nil {
		b = append(b, `,"decisions":null`...)
	} else {
		b = append(b, `,"decisions":[`...)
		for i, d := range r.Decisions {
			if err := d.checkWire(); err != nil {
				return nil, err
			}
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, decisionWire[d]...)
		}
		b = append(b, ']')
	}
	b = strconv.AppendBool(append(b, `,"all_awake":`...), r.AllAwake)
	b = strconv.AppendBool(append(b, `,"truncated":`...), r.Truncated)
	b = strconv.AppendBool(append(b, `,"timed_out":`...), r.TimedOut)
	if len(r.Crashed) > 0 {
		b = appendWireInts(append(b, `,"crashed":`...), r.Crashed)
	}
	b = strconv.AppendInt(append(b, `,"dropped":`...), r.Dropped, 10)
	b = strconv.AppendInt(append(b, `,"duplicated":`...), r.Duplicated, 10)
	b = strconv.AppendBool(append(b, `,"ok":`...), r.OK)
	if t := r.Trace; t != nil {
		b = strconv.AppendInt(append(b, `,"trace":{"edges":`...), int64(t.Edges), 10)
		b = strconv.AppendInt(append(b, `,"max_component":`...), int64(t.MaxComponent), 10)
		b = strconv.AppendInt(append(b, `,"components":`...), int64(t.Components), 10)
		b = strconv.AppendInt(append(b, `,"port_opens":`...), int64(t.PortOpens), 10)
		b = append(b, '}')
	}
	if r.Topo != "" {
		b = appendWireString(append(b, `,"topo":`...), r.Topo)
	}
	if r.Diameter != 0 {
		b = strconv.AppendInt(append(b, `,"diameter":`...), int64(r.Diameter), 10)
	}
	if r.GraphEdges != 0 {
		b = strconv.AppendInt(append(b, `,"graph_edges":`...), r.GraphEdges, 10)
	}
	if len(r.RoundTrace) > 0 {
		b = append(b, `,"round_trace":[`...)
		for i, st := range r.RoundTrace {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendRoundStat(b, st)
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// wireSizeHint estimates the encoded length of r so MarshalJSON allocates
// its buffer once: fixed fields plus the widest possible per-element cost
// of each slice (IDs are sized from the widest ID present).
func (r *Result) wireSizeHint() int {
	var widest int64
	for _, id := range r.IDs {
		widest = max(widest, id, -id)
	}
	idWidth := 3 // one digit, a sign and a comma
	for ; widest >= 10; widest /= 10 {
		idWidth++
	}
	const decisionWidth = len(`"non-leader",`)
	return 400 + 6*(len(r.Algorithm)+len(r.Topo)) +
		idWidth*len(r.IDs) + decisionWidth*len(r.Decisions) +
		21*(len(r.PerRound)+len(r.Crashed)) + 200*len(r.RoundTrace)
}

func appendRoundStat(b []byte, st RoundStat) []byte {
	b = strconv.AppendInt(append(b, `{"round":`...), int64(st.Round), 10)
	b = strconv.AppendInt(append(b, `,"messages":`...), st.Messages, 10)
	b = strconv.AppendInt(append(b, `,"words":`...), st.Words, 10)
	b = strconv.AppendInt(append(b, `,"deliveries":`...), st.Deliveries, 10)
	b = strconv.AppendInt(append(b, `,"active":`...), int64(st.Active), 10)
	b = strconv.AppendInt(append(b, `,"woke":`...), int64(st.Woke), 10)
	b = strconv.AppendInt(append(b, `,"decided":`...), int64(st.Decided), 10)
	if len(st.Kinds) > 0 {
		// encoding/json sorts map keys as strings: "10" before "2".
		keys := make([]uint8, 0, len(st.Kinds))
		for k := range st.Kinds {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, func(x, y uint8) int {
			return strings.Compare(strconv.Itoa(int(x)), strconv.Itoa(int(y)))
		})
		b = append(b, `,"kinds":{`...)
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(strconv.AppendUint(append(b, '"'), uint64(k), 10), '"', ':')
			b = strconv.AppendInt(b, st.Kinds[k], 10)
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

func appendWireInts[T int | int64](b []byte, vs []T) []byte {
	if vs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// appendWireFloat formats f as encoding/json does: like ES6 number to
// string, 'f' format unless |f| is outside [1e-6, 1e21), with two-digit
// negative exponents shortened (e-09 → e-9).
func appendWireFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendWireString quotes s as encoding/json does. Printable ASCII that
// needs no escape is copied; any other string is quoted by encoding/json
// itself, whose escaping (HTML-safe <>&, U+2028/U+2029, invalid UTF-8) is
// the reference.
func appendWireString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// decisionWire holds each decision's quoted wire spelling.
var decisionWire = func() (q [NonLeader + 1]string) {
	for d := range q {
		q[d] = strconv.Quote(Decision(d).String())
	}
	return q
}()

// UnmarshalJSON decodes v1 wire bytes into r; null is a no-op. Input in the
// canonical layout MarshalJSON writes is read directly; anything else —
// whitespace, another key order, unknown keys, trace objects, or bytes that
// are not valid JSON — is handed whole to encoding/json on resultJSON, the
// v1 reference, so the fast path never changes what decodes or errors.
func (r *Result) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	x := *r
	if readCanonical(data, &x) {
		*r = x
		return nil
	}
	// Decoding into a copy keeps r itself off the heap on the fast path.
	ref := resultJSON(*r)
	err := json.Unmarshal(data, &ref)
	*r = Result(ref)
	return err
}

// readCanonical decodes the canonical layout into r, reporting false at the
// first byte it does not expect. Trace and RoundTrace are never read here:
// inputs carrying them take the reference path.
func readCanonical(data []byte, r *Result) bool {
	w := wireReader{b: data}
	w.lit(`{"algorithm":`)
	r.Algorithm = string(w.raw())
	w.lit(`,"model":`)
	w.check(r.Model.UnmarshalText(w.raw()))
	w.lit(`,"engine":`)
	w.check(r.Engine.UnmarshalText(w.raw()))
	w.lit(`,"n":`)
	r.N = wireInt[int](&w)
	w.lit(`,"seed":`)
	r.Seed = w.uint64()
	w.lit(`,"ids":`)
	r.IDs = readWireInts[int64](&w, r.N)
	w.lit(`,"leader":`)
	r.Leader = wireInt[int](&w)
	w.lit(`,"leader_id":`)
	r.LeaderID = w.int64()
	w.lit(`,"messages":`)
	r.Messages = w.int64()
	w.lit(`,"words":`)
	r.Words = w.int64()
	w.lit(`,"rounds":`)
	r.Rounds = wireInt[int](&w)
	if w.opt(`,"per_round":`) {
		r.PerRound = readWireInts[int64](&w, r.Rounds+1)
	}
	w.lit(`,"time_units":`)
	r.TimeUnits = w.float()
	w.lit(`,"decisions":`)
	r.Decisions = w.decisions(r.N)
	w.lit(`,"all_awake":`)
	r.AllAwake = w.bool()
	w.lit(`,"truncated":`)
	r.Truncated = w.bool()
	w.lit(`,"timed_out":`)
	r.TimedOut = w.bool()
	if w.opt(`,"crashed":`) {
		r.Crashed = readWireInts[int](&w, 0)
	}
	w.lit(`,"dropped":`)
	r.Dropped = w.int64()
	w.lit(`,"duplicated":`)
	r.Duplicated = w.int64()
	w.lit(`,"ok":`)
	r.OK = w.bool()
	if w.opt(`,"topo":`) {
		r.Topo = string(w.raw())
	}
	if w.opt(`,"diameter":`) {
		r.Diameter = wireInt[int](&w)
	}
	if w.opt(`,"graph_edges":`) {
		r.GraphEdges = w.int64()
	}
	w.lit(`}`)
	return !w.bad && w.i == len(w.b)
}

// wireReader scans the canonical layout. Every method is a no-op returning
// a zero value once bad is set, so readCanonical reads straight through and
// checks bad once at the end.
type wireReader struct {
	b   []byte
	i   int
	bad bool
}

// opt consumes s if it comes next.
func (w *wireReader) opt(s string) bool {
	if w.bad || len(w.b)-w.i < len(s) || string(w.b[w.i:w.i+len(s)]) != s {
		return false
	}
	w.i += len(s)
	return true
}

// lit consumes s, which must come next.
func (w *wireReader) lit(s string) {
	if !w.opt(s) {
		w.bad = true
	}
}

// skip consumes c if it comes next.
func (w *wireReader) skip(c byte) bool {
	if w.bad || w.i == len(w.b) || w.b[w.i] != c {
		return false
	}
	w.i++
	return true
}

// raw returns the contents of a string without escapes or control bytes
// whose non-ASCII bytes are valid UTF-8: exactly the strings encoding/json
// decodes to their own bytes.
func (w *wireReader) raw() []byte {
	if !w.skip('"') {
		w.bad = true
	}
	start, ascii := w.i, true
	for !w.bad && w.i < len(w.b) {
		c := w.b[w.i]
		w.i++
		switch {
		case c == '"':
			if s := w.b[start : w.i-1]; ascii || utf8.Valid(s) {
				return s
			}
			w.bad = true
		case c < 0x20 || c == '\\':
			w.bad = true
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	w.bad = true
	return nil
}

// check fails the read on a non-nil error from an enum's UnmarshalText, the
// method the reference decodes enums with.
func (w *wireReader) check(err error) {
	if err != nil {
		w.bad = true
	}
}

func (w *wireReader) bool() bool {
	switch {
	case w.opt("true"):
		return true
	case w.opt("false"):
		return false
	}
	w.bad = true
	return false
}

// uint64 consumes a JSON integer's magnitude (0 or [1-9][0-9]*), failing on
// uint64 overflow. Fraction or exponent syntax after it fails the caller's
// next lit.
func (w *wireReader) uint64() uint64 {
	if w.bad || w.i == len(w.b) || w.b[w.i] < '0' || w.b[w.i] > '9' {
		w.bad = true
		return 0
	}
	if w.b[w.i] == '0' {
		w.i++
		return 0
	}
	var v uint64
	for start := w.i; w.i < len(w.b) && w.b[w.i]-'0' <= 9; w.i++ {
		d := uint64(w.b[w.i] - '0')
		if w.i-start >= 19 && v > (math.MaxUint64-d)/10 { // 19 digits always fit
			w.bad = true
			return 0
		}
		v = v*10 + d
	}
	return v
}

func (w *wireReader) int64() int64 {
	neg := w.skip('-')
	v := w.uint64()
	switch {
	case neg && v <= 1<<63:
		return -int64(v)
	case !neg && v <= math.MaxInt64:
		return int64(v)
	}
	w.bad = true
	return 0
}

// wireInt reads an integer that must fit T.
func wireInt[T int | int64](w *wireReader) T {
	v := w.int64()
	if int64(T(v)) != v {
		w.bad = true
		return 0
	}
	return T(v)
}

// float parses a JSON number with strconv.ParseFloat, as the reference does.
func (w *wireReader) float() float64 {
	start := w.i
	w.skip('-')
	w.uint64()
	if w.skip('.') {
		w.digitRun()
	}
	if w.skip('e') || w.skip('E') {
		if !w.skip('+') {
			w.skip('-')
		}
		w.digitRun()
	}
	if w.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(w.b[start:w.i]), 64)
	if err != nil {
		w.bad = true
	}
	return f
}

// digitRun consumes one or more digits.
func (w *wireReader) digitRun() {
	start := w.i
	for w.i < len(w.b) && w.b[w.i]-'0' <= 9 {
		w.i++
	}
	if w.i == start {
		w.bad = true
	}
}

// decisions reads a decision array (or null), presized to the node count
// but never beyond what the remaining input can hold.
func (w *wireReader) decisions(n int) []Decision {
	if w.opt("null") {
		return nil
	}
	w.lit("[")
	out := make([]Decision, 0, min(max(n, 0), (len(w.b)-w.i)/len(`"leader",`)))
	if w.skip(']') {
		return out
	}
	for !w.bad {
		d := Undecided
		for d <= NonLeader && !w.opt(decisionWire[d]) {
			d++
		}
		if d > NonLeader {
			w.bad = true // an escaped spelling or no decision at all
		}
		out = append(out, d)
		if !w.skip(',') {
			w.lit("]")
			break
		}
	}
	return out
}

// readWireInts reads an integer array (or null), presized to hint elements
// but never beyond what the remaining input can hold.
func readWireInts[T int | int64](w *wireReader, hint int) []T {
	if w.opt("null") {
		return nil
	}
	w.lit("[")
	out := make([]T, 0, min(max(hint, 0), (len(w.b)-w.i)/len("0,")))
	if w.skip(']') {
		return out
	}
	for !w.bad {
		out = append(out, wireInt[T](w))
		if !w.skip(',') {
			w.lit("]")
			break
		}
	}
	return out
}
