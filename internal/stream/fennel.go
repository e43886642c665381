package stream

import (
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
// and LDG. The score is computed on a 2^-16 fixed-point grid with an
// exact integer square root (FennelPenalty, Placer.Place), and a hard
// capacity of 2·⌊(1+Eps)·⌈W/k⌉⌋ backstops pathological skew. Placement
// itself lives in Placer (place.go), shared with the streaming-ingest
// session: ties break uniformly to the lower load, including against the
// first candidate scored.
func Fennel(g *graph.Graph, k int32, opt Options) *partition.Partitioning {
	return run(g, k, opt, PlaceFennel)
}
