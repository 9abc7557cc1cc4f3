package simasync

import (
	"testing"

	"cliquelect/internal/ids"
	"cliquelect/internal/proto"
)

// echo is a steady-traffic protocol for the allocation budget: every node
// opens on four ports and each delivery is answered on its arrival port
// until the message has bounced hops times. It draws its sends from a
// proto.SendBuf, the hot-path idiom the engine contract permits.
type echo struct {
	hops int64
	sbuf proto.SendBuf
}

func (p *echo) Wake(env proto.Env) []proto.Send {
	out := p.sbuf.Take(min(4, env.Ports()))
	for i := range out {
		out[i] = proto.Send{Port: i, Msg: proto.Message{Kind: 1}}
	}
	return out
}

func (p *echo) Receive(d proto.Delivery) []proto.Send {
	if d.Msg.A+1 >= p.hops {
		return nil
	}
	out := p.sbuf.Take(1)
	out[0] = proto.Send{Port: d.Port, Msg: proto.Message{Kind: 1, A: d.Msg.A + 1}}
	return out
}

func (p *echo) Decision() proto.Decision { return proto.NonLeader }

// TestEventLoopAllocBudget is the event loop's regression tripwire, the
// async counterpart of simsync's TestRoundLoopAllocBudget: a warm-pool run
// must stay within a fixed allocation budget. It runs under unit delays,
// where every event goes through the ring and the FIFO clamp is skipped,
// and under uniform delays, where the heap and the clamp table carry the
// out-of-order traffic.
//
// Warm runs measured 523 allocations per run under both policies at
// n = 256, i.e. 2n+11: n protocol instances, n SendBuf first grows, and
// the per-run slices, Result, PerKind map and closures of Run. Each run
// delivers n*4*12 = 12288 messages, so a single allocation per event
// would add 12288 and trips the 2.5*n budget at once, while the slack
// absorbs pool misses under GC pressure. A queue or clamp table that lost
// its pooling would add only O(log events) growth allocations per run;
// that shows in the benchmark's simasync.allocs_per_cell, not here.
func TestEventLoopAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budget is enforced in the non-race build")
	}
	const n = 256
	assign := ids.Sequential(ids.LinearUniverse(n, 1), n)
	factory := func(int) Protocol { return &echo{hops: 12} }
	for _, tc := range []struct {
		name   string
		delays DelayPolicy
	}{
		{"unit", UnitDelay{}},
		{"uniform", UniformDelay{Lo: 0.1}},
	} {
		cfg := Config{N: n, IDs: assign, Seed: 9, Delays: tc.delays, Wake: AllAtZero(n)}
		// Warm every pool (event queue, clamp table, port-map tables).
		res, err := Run(cfg, factory)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(n * 4 * 12); res.Messages != want {
			t.Fatalf("%s: %d messages, want %d", tc.name, res.Messages, want)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := Run(cfg, factory); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per warm run", tc.name, allocs)
		if budget := 2.5 * n; allocs > budget {
			t.Fatalf("%s: Run allocated %.0f times per run, budget %.0f", tc.name, allocs, budget)
		}
	}
}
