// Package stream implements the initial partitioners the paper evaluates
// against and feeds into PARAGON: HP (hash partitioning, the de-facto
// default of Pregel-like engines) and the two streaming heuristics of
// Stanton & Kliot (SIGKDD'12) — DG (deterministic greedy) and LDG (linear
// deterministic greedy). Per §7, DG and LDG are extended to support
// vertex- and edge-weighted graphs: partition load is the sum of vertex
// weights and neighbor affinity is the sum of edge weights.
package stream

import (
	"fmt"

	"paragon/internal/graph"
	"paragon/internal/partition"
)

// Options configures the streaming partitioners.
type Options struct {
	// Eps is the load-imbalance tolerance; capacity is
	// (1+Eps)·totalWeight/k. The paper allows 2%.
	Eps float64
	// Order selects the arrival sequence (default OrderNatural). The
	// paper notes DG and LDG quality depends on arrival order.
	Order Order
	// Seed drives OrderRandom/OrderBFS/OrderDFS starts.
	Seed int64
}

// DefaultOptions returns the paper's defaults (2% imbalance, natural
// order).
func DefaultOptions() Options { return Options{Eps: 0.02} }

// HP assigns each vertex to partition hash(v) mod k: the de-facto
// standard random (hash) partitioner.
func HP(g *graph.Graph, k int32) *partition.Partitioning {
	if k < 1 {
		panic(fmt.Sprintf("stream: HP k = %d", k))
	}
	p := partition.New(k, g.NumVertices())
	for v := int32(0); v < g.NumVertices(); v++ {
		p.Assign[v] = hash32(uint32(v)) % k
	}
	return p
}

// hash32 is a Murmur3-style finalizer: a cheap, well-mixed integer hash.
func hash32(x uint32) int32 {
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return int32(x & 0x7fffffff)
}

// DG runs the deterministic greedy heuristic: each arriving vertex goes
// to the partition holding the most (edge-weighted) neighbors, provided
// the partition has remaining capacity; ties and the no-neighbor case go
// to the least-loaded candidate.
func DG(g *graph.Graph, k int32, opt Options) *partition.Partitioning {
	return run(g, k, opt, PlaceDG)
}

// LDG runs the linear deterministic greedy heuristic: like DG but the
// neighbor affinity of partition i is damped by its remaining capacity,
// score = affinity(i) · (1 − w(Pi)/C), compared exactly as
// affinity(i) · (C − w(Pi)).
func LDG(g *graph.Graph, k int32, opt Options) *partition.Partitioning {
	return run(g, k, opt, PlaceLDG)
}

// run streams g's vertices in opt.Order through one Placer of the rule,
// against capacity ⌊(1+Eps)·⌈W/k⌉⌋ (at least 1) and Fennel's penalty for
// g's totals.
func run(g *graph.Graph, k int32, opt Options, rule PlaceRule) *partition.Partitioning {
	if k < 1 {
		panic(fmt.Sprintf("stream: %v k = %d", rule, k))
	}
	p := partition.New(k, g.NumVertices())
	for i := range p.Assign {
		p.Assign[i] = -1 // unassigned marker, fixed up as the stream runs
	}
	capacity := max(partition.BalanceBound(g, k, opt.Eps), 1)
	penalty := FennelPenalty(k, g.TotalEdgeWeight(), g.TotalVertexWeight())
	pl := NewPlacer(rule, k)
	load := make([]int64, k)
	for _, v := range streamOrder(g, opt.Order, opt.Seed) {
		vw := int64(g.VertexWeight(v))
		best := pl.Place(g.Neighbors(v), g.EdgeWeights(v), p.Assign, load, vw, capacity, penalty)
		p.Assign[v] = best
		load[best] += vw
	}
	return p
}
