package partition

import (
	"fmt"
	"math"
	"sync"

	"paragon/internal/graph"
)

// NeighborProfile is a per-vertex partition-weight table: entry (v, q)
// holds Σ w(v,u) over neighbors u owned by partition q under a reference
// assignment. The scheduled refiner seeds each candidate's gain state
// from v's segment instead of an O(deg) adjacency scan per pair — two
// O(log t) lookups under a uniform cost matrix, one O(t) walk under a
// general one (Eq. 8 needs every entry). On a tournament round every
// boundary vertex is a candidate of m−1 pairs, so the scan repeats its
// random-access walk of the assignment m−1 times while the profile
// answers from one contiguous, presorted segment. The weights are exact
// integer sums, so a profile read returns bit-for-bit the value the scan
// would.
//
// The reference assignment is the scheduler's master, which is the
// wave-start view: at each wave barrier MoveNeighbor replays the wave's
// kept moves (cost proportional to the moved vertices' degrees, never
// |V|) in the same loop that applies them to the master index, so the
// two never drift apart (DESIGN.md §14).
//
// Layout: one CSR-style segment per vertex, entries sorted by partition,
// live entries exactly the partitions with nonzero weight. A vertex's
// segment capacity is min(deg(v), k) — the most distinct nonzero
// partitions its neighbors can occupy — so updates never spill.
type NeighborProfile struct {
	off   []int32 // v -> start of v's segment (capacity ends at off[v+1])
	end   []int32 // v -> one past the live entries of v's segment
	parts []int32 // partition per entry, ascending within a segment
	ws    []int64 // summed edge weight per entry, always > 0
}

// segmentOffsets lays out one segment of capacity min(deg(v), k) per
// vertex and returns the n+1 segment starts. Offsets are int32 — half the
// footprint of the per-vertex arrays — so a table of 2³¹ or more entries
// is refused instead of silently wrapping.
func segmentOffsets(n, k int32, deg func(v int32) int32) ([]int32, error) {
	off := make([]int32, int(n)+1)
	var total int64
	for v := int32(0); v < n; v++ {
		off[v] = int32(total)
		total += int64(min(deg(v), k))
		if total > math.MaxInt32 {
			return nil, fmt.Errorf("partition: neighbor profile needs more than 2^31-1 entries (Σ min(deg, k=%d) passes it at vertex %d of %d); refine with fewer partitions or a smaller graph", k, v, n)
		}
	}
	off[n] = int32(total)
	return off, nil
}

// BuildNeighborProfile constructs the profile of g under assign in
// O(|V| + |E|), with k the partition count. It fails when the table would
// outgrow its int32 offsets (see segmentOffsets). Once the offsets are
// laid out the segments are disjoint, so `workers` goroutines fill them
// over vertex ranges of near-equal half-edge count, each with its own
// accumulators: the table is byte-identical for every worker count.
func BuildNeighborProfile(g *graph.Graph, assign []int32, k int32, workers int) (*NeighborProfile, error) {
	n := g.NumVertices()
	off, err := segmentOffsets(n, k, g.Degree)
	if err != nil {
		return nil, err
	}
	np := &NeighborProfile{
		off:   off,
		end:   make([]int32, n),
		parts: make([]int32, off[n]),
		ws:    make([]int64, off[n]),
	}
	bounds := g.VertexRanges(workers)
	var wg sync.WaitGroup
	for i := 0; i+1 < len(bounds); i++ {
		wg.Add(1)
		go func(lo, hi int32) {
			defer wg.Done()
			np.fill(g, assign, k, lo, hi)
		}(bounds[i], bounds[i+1])
	}
	wg.Wait()
	return np, nil
}

// fill builds the segments of the vertices in [lo, hi).
func (np *NeighborProfile) fill(g *graph.Graph, assign []int32, k, lo, hi int32) {
	buf := make([]int64, k)
	mask := make([]uint64, MaskWords(k))
	var tl []int32
	for v := lo; v < hi; v++ {
		adj := g.Neighbors(v)
		w := g.EdgeWeights(v)
		w = w[:len(adj)]
		for i, u := range adj {
			q := assign[u]
			buf[q] += int64(w[i])
			mask[q>>6] |= 1 << (q & 63)
		}
		tl = drainMask(mask, tl[:0])
		base := int(np.off[v])
		for i, q := range tl {
			//lint:ignore sharedwrite v's segment [off[v], off[v+1]) belongs to the one worker whose [lo, hi) holds v
			np.parts[base+i], np.ws[base+i] = q, buf[q]
			buf[q] = 0
		}
		np.end[v] = int32(base + len(tl))
	}
}

// Segment returns v's live entries — partitions ascending, each with its
// nonzero summed weight. The slices alias the table: read-only, valid
// until the next MoveNeighbor on v.
func (np *NeighborProfile) Segment(v int32) (parts []int32, ws []int64) {
	base, end := np.off[v], np.end[v]
	return np.parts[base:end], np.ws[base:end]
}

// Get returns Σ w(v,u) over neighbors u owned by partition q — zero when
// no neighbor is. Binary search over v's sorted segment.
func (np *NeighborProfile) Get(v, q int32) int64 {
	lo, hi := int(np.off[v]), int(np.end[v])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if np.parts[mid] < q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < int(np.end[v]) && np.parts[lo] == q {
		return np.ws[lo]
	}
	return 0
}

// GetPair returns (Get(v, a), Get(v, b)) from one walk of v's segment —
// the delta-mode seeding path, which always needs both sides of a pair.
// Small segments scan linearly (one or two cache lines, hardware
// prefetched); large ones fall back to two binary searches.
func (np *NeighborProfile) GetPair(v, a, b int32) (wa, wb int64) {
	base, end := int(np.off[v]), int(np.end[v])
	if end-base <= 32 {
		parts := np.parts[base:end]
		ws := np.ws[base:end]
		for i, q := range parts {
			if q == a {
				wa = ws[i]
			} else if q == b {
				wb = ws[i]
			}
		}
		return wa, wb
	}
	return np.Get(v, a), np.Get(v, b)
}

// MoveNeighbor records that v's neighbor moved from partition `from` to
// `to`, shifting the connecting edge weight w between the two entries of
// v's segment. O(t) worst case for the entry insert/remove shift, with
// t = live entries of v.
func (np *NeighborProfile) MoveNeighbor(v, from, to int32, w int64) {
	if from == to || w == 0 {
		return
	}
	base, end := int(np.off[v]), int(np.end[v])
	// Decrement (and possibly remove) the `from` entry; it must exist.
	i := np.lowerBound(base, end, from)
	np.ws[i] -= w
	if np.ws[i] == 0 {
		copy(np.parts[i:end-1], np.parts[i+1:end])
		copy(np.ws[i:end-1], np.ws[i+1:end])
		end--
		np.end[v] = int32(end)
	}
	// Increment (or insert) the `to` entry.
	j := np.lowerBound(base, end, to)
	if j < end && np.parts[j] == to {
		np.ws[j] += w
		return
	}
	copy(np.parts[j+1:end+1], np.parts[j:end])
	copy(np.ws[j+1:end+1], np.ws[j:end])
	np.parts[j] = to
	np.ws[j] = w
	np.end[v] = int32(end + 1)
}

func (np *NeighborProfile) lowerBound(lo, hi int, q int32) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if np.parts[mid] < q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
