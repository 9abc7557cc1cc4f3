package elect

import (
	"bytes"
	"testing"
)

// TestPooledReuseIdentity is the pooling contract of the engine overhaul:
// the engines recycle inbox arenas, port-map tables, event queues and send
// buffers across runs, and none of that reuse may leak state between
// executions. For every registered spec on every deterministic engine it
// supports, a run repeated on warm pools must reproduce the cold run's
// encoded Result byte for byte — including the per-round and per-kind
// statistics, which are exactly the fields assembled from pooled scratch.
func TestPooledReuseIdentity(t *testing.T) {
	for _, spec := range Registry() {
		for _, engine := range spec.Engines() {
			if engine == EngineLive {
				continue // nondeterministic by design
			}
			opts := []Option{WithN(48), WithSeed(11), WithEngine(engine)}
			cold, err := Run(spec, opts...)
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.Name, engine, err)
			}
			coldBytes, err := EncodeResult(cold)
			if err != nil {
				t.Fatal(err)
			}
			// Interleave other shapes so the pools are dirtied by runs of
			// different sizes before the repeat.
			if _, err := Run(spec, WithN(16), WithSeed(99), WithEngine(engine)); err != nil {
				t.Fatalf("%s/%s (dirtying run): %v", spec.Name, engine, err)
			}
			for i := 0; i < 3; i++ {
				warm, err := Run(spec, opts...)
				if err != nil {
					t.Fatalf("%s/%s warm #%d: %v", spec.Name, engine, i, err)
				}
				warmBytes, err := EncodeResult(warm)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(coldBytes, warmBytes) {
					t.Fatalf("%s/%s: warm run #%d diverges from cold run\ncold: %s\nwarm: %s",
						spec.Name, engine, i, coldBytes, warmBytes)
				}
			}
			// The per-round histogram must still account for every message
			// (sync engine; index 0 is unused by convention).
			if engine == EngineSync {
				var sum int64
				for _, c := range cold.PerRound {
					sum += c
				}
				if sum != cold.Messages {
					t.Fatalf("%s: PerRound sums to %d, Messages = %d", spec.Name, sum, cold.Messages)
				}
			}
		}
	}
}
