package simasync

import (
	"slices"
	"testing"

	"cliquelect/internal/xrand"
)

// TestEventQueueOrder checks eventQueue against a reference kept sorted by
// (time, seq): every pop must return the reference's first event. Pushes
// mix the shapes the engine produces — in-order runs at equal or rising
// times, out-of-order pushes, and long pop-free bursts — so the ring wraps
// around, grows, and shares the head with a nonempty heap. One queue is
// reused across trials through reset, sometimes with events left in it.
func TestEventQueueOrder(t *testing.T) {
	rng := xrand.New(1)
	var q eventQueue
	var wrapped, grew, mixed bool
	cmp := func(a, b event) int {
		switch {
		case before(&a, &b):
			return -1
		case before(&b, &a):
			return 1
		}
		return 0
	}
	for trial := 0; trial < 200; trial++ {
		q.reset()
		var ref []event
		var seq int64
		now, tail := 0.0, 0.0
		for op := 0; op < 2000; op++ {
			if len(ref) > 0 && rng.Intn(100) < 45 {
				got, want := q.pop(), ref[0]
				ref = ref[1:]
				if got != want {
					t.Fatalf("trial %d op %d: pop = (%v, %d), want (%v, %d)",
						trial, op, got.time, got.seq, want.time, want.seq)
				}
				now = got.time
				continue
			}
			var at float64
			switch r := rng.Intn(10); {
			case r < 5: // in order: at or after the latest push
				at = tail + float64(rng.Intn(3))/4
			case r < 8: // out of order, but not before the last pop
				at = now + float64(rng.Intn(8))/8
			default: // a burst of equal times, as in a simultaneous wake-up
				at = tail
			}
			if at > tail {
				tail = at
			}
			e := event{time: at, seq: seq, node: int(seq)}
			seq++
			q.push(e)
			i, _ := slices.BinarySearchFunc(ref, e, cmp)
			ref = slices.Insert(ref, i, e)
			if q.head+q.n > len(q.ring) {
				wrapped = true
			}
			if len(q.ring) > 256 {
				grew = true
			}
			if q.n > 0 && len(q.heap) > 0 {
				mixed = true
			}
			if q.len() != len(ref) {
				t.Fatalf("trial %d op %d: len = %d, want %d", trial, op, q.len(), len(ref))
			}
		}
		if trial%3 == 0 {
			continue // reset with events still queued
		}
		for len(ref) > 0 {
			got, want := q.pop(), ref[0]
			ref = ref[1:]
			if got != want {
				t.Fatalf("trial %d drain: pop = (%v, %d), want (%v, %d)",
					trial, got.time, got.seq, want.time, want.seq)
			}
		}
		if q.len() != 0 {
			t.Fatalf("trial %d: %d events left after drain", trial, q.len())
		}
	}
	if !wrapped || !grew || !mixed {
		t.Fatalf("coverage: wrapped=%v grew=%v mixed=%v, want all true", wrapped, grew, mixed)
	}
}
