// Package dyn models graph dynamism for the Figure 14 experiment: a
// growing graph observed as cumulative snapshots (the paper splits the
// YouTube friendship trace into 5 snapshots of 45 days each), with newly
// arrived vertices injected into the running decomposition by a streaming
// partitioner, after which a repartitioner or refiner may adapt the
// decomposition.
package dyn

import (
	"fmt"
	"math/rand"

	"paragon/internal/graph"
	"paragon/internal/partition"
	"paragon/internal/stream"
)

// Snapshot is one prefix of the arrival stream. Vertices are relabeled
// by arrival rank, so snapshot i's vertex ids are exactly 0..N(i)-1 and
// every later snapshot extends the earlier ones: vertex v means the same
// entity in all snapshots that contain it.
type Snapshot struct {
	Graph *graph.Graph
	// Orig maps arrival-rank id -> vertex id in the full graph.
	Orig []int32
	// FirstNew is the arrival rank of the first vertex that is new in
	// this snapshot (== previous snapshot's vertex count).
	FirstNew int32
}

// Snapshots splits g into s cumulative snapshots along a seeded random
// arrival order. Snapshot i (1-based in the paper, 0-based here) holds
// the first (i+1)/s fraction of vertices and all edges among them.
func Snapshots(g *graph.Graph, s int, seed int64) ([]Snapshot, error) {
	n := g.NumVertices()
	if s < 1 || int32(s) > n {
		return nil, fmt.Errorf("dyn: cannot split %d vertices into %d snapshots", n, s)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(int(n)) // arrival rank -> original id
	rank := make([]int32, n) // original id -> arrival rank
	orig := make([]int32, n)
	for r, ov := range perm {
		orig[r] = int32(ov)
		rank[ov] = int32(r)
	}
	out := make([]Snapshot, 0, s)
	prev := int32(0)
	for i := 1; i <= s; i++ {
		size := int32(int64(n) * int64(i) / int64(s))
		if size < 1 {
			size = 1
		}
		bld := graph.NewBuilder(size)
		for r := int32(0); r < size; r++ {
			ov := orig[r]
			bld.SetVertexWeight(r, g.VertexWeight(ov))
			bld.SetVertexSize(r, g.VertexSize(ov))
			adj := g.Neighbors(ov)
			w := g.EdgeWeights(ov)
			for j, ou := range adj {
				ur := rank[ou]
				if ur < size && r < ur {
					bld.AddWeightedEdge(r, ur, w[j])
				}
			}
		}
		out = append(out, Snapshot{Graph: bld.Build(), Orig: orig[:size:size], FirstNew: prev})
		prev = size
	}
	return out, nil
}

// Inject extends a decomposition of the previous snapshot to the current
// one: vertices below snap.FirstNew keep their partitions from prev, and
// each new vertex is streamed in with stream.Placer's deterministic-greedy
// rule (most-affine partition with remaining capacity, least-loaded
// fallback) — how the paper injects newly appeared vertices with DG.
func Inject(snap Snapshot, prev *partition.Partitioning, k int32, eps float64) (*partition.Partitioning, error) {
	g := snap.Graph
	n := g.NumVertices()
	if prev == nil && snap.FirstNew != 0 {
		return nil, fmt.Errorf("dyn: missing previous decomposition for snapshot with %d old vertices", snap.FirstNew)
	}
	if prev != nil && int32(len(prev.Assign)) != snap.FirstNew {
		return nil, fmt.Errorf("dyn: previous decomposition has %d vertices, snapshot expects %d", len(prev.Assign), snap.FirstNew)
	}
	p := partition.New(k, n)
	for v := range p.Assign {
		p.Assign[v] = -1
	}
	load := make([]int64, k)
	if prev != nil {
		if prev.K != k {
			return nil, fmt.Errorf("dyn: k changed from %d to %d", prev.K, k)
		}
		for v := int32(0); v < snap.FirstNew; v++ {
			p.Assign[v] = prev.Assign[v]
			load[prev.Assign[v]] += int64(g.VertexWeight(v))
		}
	}
	capacity := partition.BalanceBound(g, k, eps)
	pl := stream.NewPlacer(stream.PlaceDG, k)
	for v := snap.FirstNew; v < n; v++ {
		vw := int64(g.VertexWeight(v))
		best := pl.Place(g.Neighbors(v), g.EdgeWeights(v), p.Assign, load, vw, capacity, 0)
		p.Assign[v] = best
		load[best] += vw
	}
	return p, nil
}
