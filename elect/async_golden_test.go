package elect

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// asyncGolden pins the SHA-256 of the canonical EncodeResult bytes of
// representative asynchronous runs. The async simulator's event order is
// part of the determinism contract: a change to its event queue or FIFO
// clamp that reorders even one delivery shows up here as a digest drift.
// The digests were captured before the event queue became a ring plus a
// heap, and must never be regenerated to make an engine change pass.
var asyncGolden = []struct {
	name string
	spec string
	opts []Option
	want string
}{
	{"asynctradeoff-k3-unit", "asynctradeoff",
		[]Option{WithN(128), WithSeed(3), WithParams(Params{K: 3})}, "cd8b1c39392fcff5d1b96a5ac06135ab7cd6bbb598d629577de6254791000c10"},
	{"asynctradeoff-k3-uniform", "asynctradeoff",
		[]Option{WithN(128), WithSeed(3), WithParams(Params{K: 3}), WithDelays(DelayUniform)}, "d3389e31087eb7376625f7be46dd44613a3cb5d324521dd5152d5b17bdbd0d9b"},
	{"asynctradeoff-k3-skew", "asynctradeoff",
		[]Option{WithN(128), WithSeed(3), WithParams(Params{K: 3}), WithDelays(DelaySkew)}, "9df4318416f141a6018c05c3b8e7ae13c43cf6f926c7649130799b9f19e7e04a"},
	{"asynctradeoff-k4-unit", "asynctradeoff",
		[]Option{WithN(256), WithSeed(8), WithParams(Params{K: 4})}, "a1c452c11e7d2d81479ec8a8148a561ab75e0a571aee368a9fd25631602a0037"},
	{"asynctradeoff-k4-uniform", "asynctradeoff",
		[]Option{WithN(256), WithSeed(8), WithParams(Params{K: 4}), WithDelays(DelayUniform)}, "b2cd40b74fdddded6ee4b019ffcb183e9d24f1a8bc44255030a2b2d5ed548c5a"},
	{"asynctradeoff-k4-skew", "asynctradeoff",
		[]Option{WithN(256), WithSeed(8), WithParams(Params{K: 4}), WithDelays(DelaySkew)}, "00d880ab9f241884c1338eb6de4ce0262e15683cb8892efb9ca961932beac782"},
	{"asyncafekgafni-unit", "asyncafekgafni",
		[]Option{WithN(128), WithSeed(5)}, "b5910a9b9ddf3ec249c5aa0a8e7a1c96e73b8f92be07287b071c3930be7ef0ec"},
	{"asyncafekgafni-skew", "asyncafekgafni",
		[]Option{WithN(128), WithSeed(5), WithDelays(DelaySkew)}, "a0b58900b27b947391aec5b4d26d8f5ec5c9ba0b7ed85c8d25430e7561c497cb"},
	{"asynclinear-unit", "asynclinear",
		[]Option{WithN(128), WithSeed(6)}, "3523febd6c17121d966af7b33f5adef8e322f173151e1ed3484f871c4aa601ca"},
	{"asynctradeoff-wake8", "asynctradeoff",
		[]Option{WithN(128), WithSeed(9), WithParams(Params{K: 3}), WithWake(8)}, "d954f5a2da6d9c6728ae12aa64853b614908e6edd1591f60ca83bc3e4f3196e1"},
	{"asynctradeoff-faults-unit", "asynctradeoff",
		[]Option{WithN(128), WithSeed(10), WithParams(Params{K: 3}),
			WithFaults(FaultPlan{CrashRate: 0.05, CrashWindow: 3, DropRate: 0.02, DupRate: 0.05})}, "87bd17c56cdb695ab23ecac9632e05c37be858f5a28571fd5e4260002d5588be"},
	{"asynctradeoff-faults-uniform", "asynctradeoff",
		[]Option{WithN(128), WithSeed(10), WithParams(Params{K: 3}), WithDelays(DelayUniform),
			WithFaults(FaultPlan{CrashRate: 0.05, CrashWindow: 3, DropRate: 0.02, DupRate: 0.05})}, "eb04a343d1dcd2e3ac10c0e45fa4158eb3998d50eb6a0098a119780c08e1a28c"},
	{"asyncafekgafni-faults-uniform", "asyncafekgafni",
		[]Option{WithN(64), WithSeed(12), WithDelays(DelayUniform),
			WithFaults(FaultPlan{CrashRate: 0.05, CrashWindow: 3, DropRate: 0.02, DupRate: 0.05})}, "15cefe48a568fc56b4d6da95074b386a73e1dee58c9bbe6537ac3a89032df637"},
	{"asynctradeoff-roundtrace", "asynctradeoff",
		[]Option{WithN(128), WithSeed(4), WithParams(Params{K: 3}), WithRoundTrace()}, "4acca56b5371b8987cc86c1adace174106d959c1284785a2b112fe99533cbe27"},
}

// TestAsyncResultGolden checks every asyncGolden digest. A failure prints
// the digest the tree computes now.
func TestAsyncResultGolden(t *testing.T) {
	for _, tc := range asyncGolden {
		spec, err := Lookup(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		res, err := Run(spec, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		b, err := EncodeResult(res)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: async result bytes drifted\n got  %s\n want %s", tc.name, got, tc.want)
		}
	}
}
