package simasync_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"cliquelect/internal/core"
	"cliquelect/internal/ids"
	"cliquelect/internal/simasync"
	"cliquelect/internal/xrand"
)

// wobbleDelay is a time-dependent custom policy: successive sends on one
// link may get shrinking delays, so the engine's FIFO clamp binds.
type wobbleDelay struct{}

func (wobbleDelay) Delay(src, _ int, now float64, _ *xrand.RNG) float64 {
	_, frac := math.Modf(now*7 + float64(src)*0.13)
	return 1 - 0.9*frac
}

// TestEngineGolden pins the engine's full Result, through a digest of its
// printed form, for schedules the elect-level goldens cannot reach: the
// kind-aware KindDelay scheduler, staggered wake-ups pushed out of time
// order, and a custom policy under which the FIFO clamp reorders
// deliveries. The digests were captured before the event queue became a
// ring plus a heap; a failure prints the digest the tree computes now.
func TestEngineGolden(t *testing.T) {
	stagger := func(n int) simasync.WakeSchedule {
		ws := make(simasync.WakeSchedule, 0, n/8)
		for u := n - 1; u >= 0; u -= 8 {
			ws = append(ws, simasync.WakeAt{Node: u, Time: float64(u%5) * 0.3})
		}
		return ws
	}
	cases := []struct {
		name    string
		n       int
		delays  simasync.DelayPolicy
		wake    func(n int) simasync.WakeSchedule
		factory simasync.Factory
		want    string
	}{
		{"asynctradeoff-kinddelay", 128,
			simasync.KindDelay{Slow: []uint8{core.KindCompeteAsync, core.KindConsult}},
			func(int) simasync.WakeSchedule { return simasync.SubsetAtZero([]int{0, 1}) },
			core.NewAsyncTradeoff(3), "ab51846aedb9f1e1bae875d5d597f7c467343342b584db6e5b63a94809606c0e"},
		{"asyncafekgafni-kinddelay", 64,
			simasync.KindDelay{Slow: []uint8{core.KindCancel, core.KindCancelGrant, core.KindCancelRefuse}},
			simasync.AllAtZero, core.NewAsyncAfekGafni(), "c8c80435250eeb73eb40960378a446d3af1030b2dd713d1093530d1147c4b93d"},
		{"asynctradeoff-staggered-uniform", 128,
			simasync.UniformDelay{Lo: 0.1}, stagger, core.NewAsyncTradeoff(3), "0df3092fb39bbfbc415dabcfa3b6e2bfffb4826167e44cac1d28994a78d9aba0"},
		{"asynctradeoff-wobble", 128,
			wobbleDelay{}, stagger, core.NewAsyncTradeoff(4), "2ca5bc10dd219d66dd8195965377758f0ddb2761a963b911f3df81670ae2bfcb"},
	}
	for _, tc := range cases {
		assign := ids.Random(ids.LogUniverse(tc.n), tc.n, xrand.New(21))
		res, err := simasync.Run(simasync.Config{
			N: tc.n, IDs: assign, Seed: 13, Delays: tc.delays, Wake: tc.wake(tc.n),
		}, tc.factory)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", *res)))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: engine result drifted\n got  %s\n want %s", tc.name, got, tc.want)
		}
	}
}
