package stream

import (
	"fmt"
	"math"
	"math/bits"
)

// Single-vertex placement, factored out of the batch partitioners so the
// streaming-ingest session places arriving vertices by exactly the same
// rules DG/LDG/Fennel apply during a batch pass. The batch partitioners
// are one loop over a Placer (run, stream.go), so a golden hash pinned on
// a batch run also pins the daemon's arrival placement.

// PlaceRule selects the placement heuristic.
type PlaceRule int

const (
	// PlaceDG: most edge-weighted neighbors, hard capacity.
	PlaceDG PlaceRule = iota
	// PlaceLDG: neighbor affinity damped by remaining capacity.
	PlaceLDG
	// PlaceFennel: affinity minus the γ·α·load^(γ−1) soft penalty.
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

// FennelPenalty returns Fennel's load-penalty coefficient p = γ·α on
// the 2^-16 grid, with γ = 3/2 and α = √k · m / n^γ for the current
// totals (n = totalVertexWeight, at least 1). The batch partitioner
// computes it once per call; the streaming session once per arrival, as
// the live totals grow. p saturates at 2^31 − 1 (γ·α = 2^15), so that
// p²·load < 2^124 for every load below 2^62.
func FennelPenalty(k int32, totalEdgeWeight, totalVertexWeight int64) int64 {
	n := float64(max(totalVertexWeight, 1))
	p := 1.5 * math.Sqrt(float64(k)) * float64(totalEdgeWeight) * (1 << 16) / (n * math.Sqrt(n))
	return int64(min(math.Round(p), 1<<31-1))
}

// Placer places one vertex at a time. The zero value is unusable; NewPlacer
// sizes the scratch. Not safe for concurrent use.
type Placer struct {
	Rule PlaceRule
	k    int32
	aff  []int64 // per-partition affinity scratch, reset via touched
	tch  []int32
}

// NewPlacer returns a placer for k partitions.
func NewPlacer(rule PlaceRule, k int32) *Placer {
	if k < 1 {
		panic(fmt.Sprintf("stream: placer k = %d", k))
	}
	return &Placer{Rule: rule, k: k, aff: make([]int64, k), tch: make([]int32, 0, 64)}
}

// Place picks the partition for one arriving vertex of weight vw whose
// (already placed) neighbors are adj with edge weights wts; assign maps a
// neighbor to its partition, negative meaning not yet placed (skipped).
// load is the per-partition vertex-weight total, updated by the caller;
// capacity is the balance bound C of partition.LoadBound, penalty
// Fennel's FennelPenalty (ignored by DG and LDG).
//
// Every score is an exact integer, compared in 128 bits: loads, capacity
// and affinities stay below 2^62, as vertex counts and weights are int32.
//
//   - DG scores aff_i; LDG scores aff_i·(C − load_i), the integer form of
//     aff_i·(1 − load_i/C). Both treat C as a hard bound, score only
//     partitions holding a neighbor, and break ties to the lower load,
//     then to the first-touched partition. With no admissible
//     positive-score candidate the vertex falls back to the least-loaded
//     partition (lowest index on ties).
//   - Fennel scores every partition, aff_i·2^16 − ⌊p·√load_i⌋, with 2C as
//     its hard backstop and the same lowest-load tie-break — including
//     against the first candidate scored.
//
// The affinity scratch is reset through the touched list, so a call
// costs O(deg + k_rule) with k_rule = k only for Fennel's scoring scan,
// never for the reset.
func (pl *Placer) Place(adj, wts, assign []int32, load []int64, vw, capacity, penalty int64) int32 {
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
		aff[pu] += int64(wts[i])
	}

	// A score is the 128-bit (hi, lo); candidates are compared on it
	// unsigned, so every rule maps its score monotonically to [0, 2^128).
	best := int32(-1)
	var bestHi, bestLo uint64
	consider := func(pi int32, hi, lo uint64) {
		if best < 0 || hi > bestHi || hi == bestHi && (lo > bestLo || lo == bestLo && load[pi] < load[best]) {
			best, bestHi, bestLo = pi, hi, lo
		}
	}
	switch pl.Rule {
	case PlaceFennel:
		pp := uint64(penalty) * uint64(penalty)
		for pi := int32(0); pi < pl.k; pi++ {
			if load[pi]+vw > 2*capacity {
				continue
			}
			// aff·2^16 + (2^64 − 1 − ⌊p·√load⌋): the score plus 2^64 − 1.
			lo, carry := bits.Add64(uint64(aff[pi])<<16, ^isqrt128(bits.Mul64(pp, uint64(load[pi]))), 0)
			consider(pi, uint64(aff[pi])>>48+carry, lo)
		}
	default:
		for _, pi := range touched {
			if load[pi]+vw > capacity {
				continue
			}
			hi, lo := uint64(0), uint64(aff[pi])
			if pl.Rule == PlaceLDG {
				hi, lo = bits.Mul64(lo, uint64(capacity-load[pi]))
			}
			consider(pi, hi, lo)
		}
		if best >= 0 && bestHi == 0 && bestLo == 0 {
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

// isqrt128 returns ⌊√x⌋ of x = hi·2^64 + lo < 2^124 by Newton's
// iteration from above, started at a power of two no smaller than the
// root: every r stays at most 2^62 and every quotient x/r < 2^62 + 3.
func isqrt128(hi, lo uint64) uint64 {
	n := bits.Len64(lo)
	if hi != 0 {
		n = 64 + bits.Len64(hi)
	}
	if n == 0 {
		return 0
	}
	r := uint64(1) << ((n + 1) / 2)
	for {
		q, _ := bits.Div64(hi, lo, r)
		next := (r + q) / 2
		if next >= r {
			return r
		}
		r = next
	}
}
