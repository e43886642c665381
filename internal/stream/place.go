package stream

import (
	"fmt"
	"math"
)

// Single-vertex placement, factored out of the batch partitioners so the
// streaming-ingest session places arriving vertices by exactly the same
// rules DG/LDG/Fennel apply during a batch pass. The batch partitioners
// in stream.go/fennel.go are now thin loops over a Placer, so a golden
// hash pinned on a batch run also pins the daemon's arrival placement.

// PlaceRule selects the placement heuristic.
type PlaceRule int

const (
	// PlaceDG: most edge-weighted neighbors, hard capacity.
	PlaceDG PlaceRule = iota
	// PlaceLDG: neighbor affinity damped by remaining capacity.
	PlaceLDG
	// PlaceFennel: affinity minus the α·γ·load^(γ−1) soft penalty.
	PlaceFennel
)

// String returns the CLI spelling of the rule.
func (r PlaceRule) String() string {
	switch r {
	case PlaceDG:
		return "dg"
	case PlaceLDG:
		return "ldg"
	case PlaceFennel:
		return "fennel"
	}
	return "unknown"
}

// ParsePlaceRule parses the CLI spelling of a rule.
func ParsePlaceRule(s string) (PlaceRule, error) {
	switch s {
	case "dg":
		return PlaceDG, nil
	case "ldg":
		return PlaceLDG, nil
	case "fennel":
		return PlaceFennel, nil
	}
	return 0, fmt.Errorf("stream: unknown placement rule %q (want dg, ldg, or fennel)", s)
}

// fennelGamma is the γ of the Fennel objective (WSDM'14 uses 1.5).
const fennelGamma = 1.5

// FennelAlpha returns the α = √k · m / n^γ coefficient for the current
// totals; the streaming session recomputes it per arrival as the live
// totals grow.
func FennelAlpha(k int32, totalEdgeWeight, totalVertexWeight float64) float64 {
	if totalVertexWeight <= 0 {
		totalVertexWeight = 1
	}
	return math.Sqrt(float64(k)) * totalEdgeWeight / math.Pow(totalVertexWeight, fennelGamma)
}

// Placer places one vertex at a time. The zero value is unusable; NewPlacer
// sizes the scratch. Not safe for concurrent use.
type Placer struct {
	Rule PlaceRule
	k    int32
	aff  []float64 // per-partition affinity scratch, reset via touched
	tch  []int32
}

// NewPlacer returns a placer for k partitions.
func NewPlacer(rule PlaceRule, k int32) *Placer {
	if k < 1 {
		panic(fmt.Sprintf("stream: placer k = %d", k))
	}
	return &Placer{Rule: rule, k: k, aff: make([]float64, k), tch: make([]int32, 0, 64)}
}

// Place picks the partition for one arriving vertex of weight vw whose
// (already placed) neighbors are adj with edge weights wts; assign maps a
// neighbor to its partition, negative meaning not yet placed (skipped).
// load is the per-partition vertex-weight total, updated by the caller.
//
//   - DG/LDG treat capacity as a hard bound and score only partitions
//     holding a neighbor; ties break to the lower load, then to the
//     first-touched partition. With no admissible positive-score
//     candidate the vertex falls back to the least-loaded partition
//     (lowest index on ties).
//   - Fennel scores every partition (capacity is its 2× hard backstop),
//     with the same uniform lowest-load tie-break — including against
//     the first candidate scored, which the pre-fix loop exempted by
//     tying against the best == -1 sentinel.
//
// The affinity scratch is reset through the touched list, so a call
// costs O(deg + k_rule) with k_rule = k only for Fennel's scoring scan,
// never for the reset — the O(n·k) streaming reset is gone.
func (pl *Placer) Place(adj, wts, assign []int32, load []float64, vw, capacity, alpha float64) int32 {
	aff := pl.aff
	touched := pl.tch[:0]
	for i, u := range adj {
		pu := assign[u]
		if pu < 0 {
			continue // neighbor not yet streamed in
		}
		if aff[pu] == 0 {
			touched = append(touched, pu)
		}
		aff[pu] += float64(wts[i])
	}

	best := int32(-1)
	bestScore := math.Inf(-1)
	switch pl.Rule {
	case PlaceFennel:
		for pi := int32(0); pi < pl.k; pi++ {
			if load[pi]+vw > capacity {
				continue
			}
			score := aff[pi] - float64(alpha*fennelGamma*math.Pow(load[pi], fennelGamma-1))
			if best < 0 || score > bestScore || (score == bestScore && load[pi] < load[best]) {
				best, bestScore = pi, score
			}
		}
	default:
		for _, pi := range touched {
			if load[pi]+vw > capacity {
				continue
			}
			score := aff[pi]
			if pl.Rule == PlaceLDG {
				score *= 1 - load[pi]/capacity
			}
			if best < 0 || score > bestScore || (score == bestScore && load[pi] < load[best]) {
				best, bestScore = pi, score
			}
		}
		if best >= 0 && bestScore <= 0 {
			best = -1 // a zero-score candidate is no better than the fallback
		}
	}
	if best < 0 {
		// No admissible candidate: fall back to least loaded.
		best = 0
		for pi := int32(1); pi < pl.k; pi++ {
			if load[pi] < load[best] {
				best = pi
			}
		}
	}

	for _, pi := range touched {
		aff[pi] = 0
	}
	pl.tch = touched[:0]
	return best
}
