// Package trace records the communication graph of a clique execution.
//
// Definition 3.1 of the paper defines the round-r communication graph
// G_r: a directed edge (u,v) exists if u sent a message over a port connected
// to v in some round r' < r. The lower-bound machinery of Section 3 reasons
// entirely about weakly connected components of this graph and their
// "capacity" (Definition 3.2: each node's count of untouched peers inside its
// component). This package maintains that graph incrementally with a
// union-find over weakly connected components, exposing exactly the
// quantities the proofs use: component sizes, per-round growth, capacity, and
// port-open counts.
//
// Naming note: despite the name, this is NOT request tracing. The
// distributed request-tracing layer of the serving stack — spans,
// traceparent propagation, the /v1/traces endpoints — lives in
// internal/obs (span.go / tracecollect.go). This package is a paper
// instrument; that one is a serving instrument. Neither imports the other.
package trace

// Recorder accumulates communication-graph state for an n-node clique.
// The zero value is unusable; call NewRecorder.
type Recorder struct {
	n int

	parent []int // union-find over weakly connected components
	size   []int

	edges     map[[2]int]struct{} // directed (src,dst) pairs seen
	degreeAll []int               // per-node count of distinct touched peers (in or out)
	touched   map[[2]int]struct{} // unordered pairs that have communicated

	portOpens  []int // per-node count of ports first used for sending
	roundEdges []int // new directed edges per round (index = round, 0 unused)
	roundOpens []int // new port-opens per round

	maxRound int
}

// NewRecorder creates a recorder for n nodes with no edges (the round-1
// communication graph: n singleton components).
func NewRecorder(n int) *Recorder {
	r := &Recorder{
		n:         n,
		parent:    make([]int, n),
		size:      make([]int, n),
		edges:     make(map[[2]int]struct{}),
		degreeAll: make([]int, n),
		touched:   make(map[[2]int]struct{}),
		portOpens: make([]int, n),
	}
	for i := range r.parent {
		r.parent[i] = i
		r.size[i] = 1
	}
	return r
}

// N returns the number of nodes.
func (r *Recorder) N() int { return r.n }

// RecordSend records that src sent a message to dst in the given round.
// opened reports whether this send was the first use of src's port to dst
// (a "port open" in the paper's terminology).
func (r *Recorder) RecordSend(round, src, dst int, opened bool) {
	if round > r.maxRound {
		r.maxRound = round
	}
	for len(r.roundEdges) <= round {
		r.roundEdges = append(r.roundEdges, 0)
		r.roundOpens = append(r.roundOpens, 0)
	}
	if opened {
		r.portOpens[src]++
		r.roundOpens[round]++
	}
	key := [2]int{src, dst}
	if _, dup := r.edges[key]; !dup {
		r.edges[key] = struct{}{}
		r.roundEdges[round]++
	}
	pair := [2]int{min(src, dst), max(src, dst)}
	if _, dup := r.touched[pair]; !dup && src != dst {
		r.touched[pair] = struct{}{}
		r.degreeAll[src]++
		r.degreeAll[dst]++
	}
	r.union(src, dst)
}

// TotalEdges returns the number of distinct directed (src,dst) pairs
// recorded so far — the edge count of the communication graph.
func (r *Recorder) TotalEdges() int { return len(r.edges) }

// Component returns the canonical representative of u's weakly connected
// component.
func (r *Recorder) Component(u int) int { return r.find(u) }

// ComponentSize returns |C| for the component containing u.
func (r *Recorder) ComponentSize(u int) int { return r.size[r.find(u)] }

// SameComponent reports whether u and v are weakly connected.
func (r *Recorder) SameComponent(u, v int) bool { return r.find(u) == r.find(v) }

// MaxComponent returns the size of the largest weakly connected component.
func (r *Recorder) MaxComponent() int {
	best := 0
	for u := 0; u < r.n; u++ {
		if r.parent[u] == u && r.size[u] > best {
			best = r.size[u]
		}
	}
	if best == 0 && r.n > 0 {
		best = 1
	}
	return best
}

// NumComponents returns the number of weakly connected components.
func (r *Recorder) NumComponents() int {
	c := 0
	for u := 0; u < r.n; u++ {
		if r.find(u) == u {
			c++
		}
	}
	return c
}

// ComponentSizes returns the multiset of component sizes in descending
// order.
func (r *Recorder) ComponentSizes() []int {
	var out []int
	for u := 0; u < r.n; u++ {
		if r.find(u) == u {
			out = append(out, r.size[u])
		}
	}
	// insertion sort descending; component counts are small
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] > out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Capacity returns u's capacity inside its component per Definition 3.2:
// the number of nodes in u's component to which u has neither sent nor from
// which it has received a message. By the definition, the capacity of a
// component C is min over u in C of that count.
func (r *Recorder) Capacity(u int) int {
	return r.ComponentSize(u) - 1 - r.degreeAll[u]
}

// ComponentCapacity returns the capacity of the whole component containing
// u: the minimum per-node capacity (Definition 3.2). O(n).
func (r *Recorder) ComponentCapacity(u int) int {
	root := r.find(u)
	capacity := r.size[root] // upper bound; shrunk below
	for v := 0; v < r.n; v++ {
		if r.find(v) == root {
			if c := r.Capacity(v); c < capacity {
				capacity = c
			}
		}
	}
	return capacity
}

// HasEdge reports whether the directed edge (src,dst) has been recorded.
func (r *Recorder) HasEdge(src, dst int) bool {
	_, ok := r.edges[[2]int{src, dst}]
	return ok
}

// PortOpens returns the number of distinct ports node u has opened (first
// sends). The Theorem 3.11 harness counts these: Ω(n log n) port opens imply
// Ω(n log n) messages.
func (r *Recorder) PortOpens(u int) int { return r.portOpens[u] }

// TotalPortOpens returns the total number of port-open events.
func (r *Recorder) TotalPortOpens() int {
	t := 0
	for _, c := range r.portOpens {
		t += c
	}
	return t
}

// RoundEdges returns the number of new directed edges first seen in the
// given round, or 0 if out of range.
func (r *Recorder) RoundEdges(round int) int {
	if round < 0 || round >= len(r.roundEdges) {
		return 0
	}
	return r.roundEdges[round]
}

// RoundOpens returns the number of port-open events in the given round.
func (r *Recorder) RoundOpens(round int) int {
	if round < 0 || round >= len(r.roundOpens) {
		return 0
	}
	return r.roundOpens[round]
}

// MaxRound returns the largest round index recorded.
func (r *Recorder) MaxRound() int { return r.maxRound }

func (r *Recorder) find(u int) int {
	for r.parent[u] != u {
		r.parent[u] = r.parent[r.parent[u]]
		u = r.parent[u]
	}
	return u
}

func (r *Recorder) union(u, v int) {
	ru, rv := r.find(u), r.find(v)
	if ru == rv {
		return
	}
	if r.size[ru] < r.size[rv] {
		ru, rv = rv, ru
	}
	r.parent[rv] = ru
	r.size[ru] += r.size[rv]
}
