package stream

import (
	"fmt"

	"paragon/internal/graph"
	"paragon/internal/partition"
)

// Fennel implements the streaming partitioner of Tsourakakis et al.
// (WSDM'14), which the paper classifies alongside DG/LDG. Each arriving
// vertex v goes to the partition maximizing
//
//	affinity(v, Pi) − α·γ·w(Pi)^(γ−1)
//
// with γ = 1.5 and α = √k · m / n^1.5 — a soft load penalty in place of
// LDG's hard capacity. The weighted extension uses edge-weight affinity
// and vertex-weight loads, consistent with the paper's extension of DG
// and LDG. A hard capacity of (1+Eps)·avg·2 backstops pathological
// skew. Placement itself lives in Placer (place.go), shared with the
// streaming-ingest session: ties break uniformly to the lower load
// (including against the first candidate scored, which the old loop's
// best == -1 sentinel exempted) and the per-vertex affinity reset walks
// only the touched entries instead of all k.
func Fennel(g *graph.Graph, k int32, opt Options) *partition.Partitioning {
	if k < 1 {
		panic(fmt.Sprintf("stream: Fennel k = %d", k))
	}
	n := g.NumVertices()
	p := partition.New(k, n)
	for i := range p.Assign {
		p.Assign[i] = -1
	}
	alpha := FennelAlpha(k, float64(g.TotalEdgeWeight()), float64(g.TotalVertexWeight()))
	hardCap := 2 * float64(partition.BalanceBound(g, k, opt.Eps))
	pl := NewPlacer(PlaceFennel, k)
	load := make([]float64, k)

	for _, v := range streamOrder(g, opt.Order, opt.Seed) {
		vw := float64(g.VertexWeight(v))
		best := pl.Place(g.Neighbors(v), g.EdgeWeights(v), p.Assign, load, vw, hardCap, alpha)
		p.Assign[v] = best
		load[best] += vw
	}
	return p
}
