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
// from v's segment instead of an O(deg) adjacency scan per pair — one
// O(t) walk of t ≤ min(deg(v), k) entries. On a tournament round every
// boundary vertex is a candidate of m−1 pairs, so the scan repeats its
// random-access walk of the assignment m−1 times while the profile
// answers from one contiguous, presorted segment. The weights are exact
// integer sums, so a profile read returns bit-for-bit the value the scan
// would.
//
// The table is sparse: a vertex has a segment only once Materialize was
// handed a mask with its bit set — the scheduler's movable mask, so the
// table holds the round's candidates (2 % of a well-partitioned mesh)
// and what it costs to build and to keep is proportional to them, not to
// |V|. Only a materialized vertex may be read.
//
// The reference assignment is the scheduler's master, which is the
// wave-start view: at each wave barrier MoveNeighbor replays the wave's
// kept moves (cost proportional to the moved vertices' degrees, never
// |V|) in the same loop that applies them to the master index. A segment
// is filled from the master when it is materialized and patched at every
// barrier from then on, so it holds the entries a table built over the
// master for every vertex would (DESIGN.md §14).
//
// Layout: one segment per materialized vertex, at consecutive offsets of
// one arena in materialization order — within one Materialize by (owner
// under assign, vertex id), the order the pair kernel reads in: the
// ascending candidates of a pair (Pi, Pj) are two ascending runs of two
// dense regions, not one line each out of all segments. A segment is one
// header entry (parts slot: live entry count, ws slot: the vertex's data
// size, so a seed needs no second id-indexed load) followed by its
// entries, sorted by partition, live entries exactly the partitions with
// nonzero weight. Its entry capacity is min(deg(v), k) — the most distinct
// nonzero partitions its neighbors can occupy — so updates never spill.
// The arena is a list of chunks rather than one slice, so that growing it
// never copies (and never holds the old and the new table at once): chunk
// c owns the segments whose header lies in [c·2^s, (c+1)·2^s), and is k+1
// entries longer than 2^s so the last of them fits.
type NeighborProfile struct {
	k      int32
	off    []int32 // v -> arena offset of v's header, -1 while v has no segment
	chunks []profileChunk
	tail   int64   // arena offset the next segment starts at
	fresh  []int32 // Materialize scratch: the vertices it is adding
	start  []int32 // Materialize scratch: where each owner's next segment goes
	// Materialize scratch: SortCandidates' all-zero bitmaps over the ids.
	words, summary []uint64
}

// profileChunk is 2^profileChunkShift offsets of the arena.
type profileChunk struct {
	parts []int32 // header: live entries; entry: its partition, ascending within a segment
	ws    []int64 // header: vertex data size; entry: summed edge weight, always > 0
}

// profileChunkShift: 16 Ki entries, 192 KiB a chunk. The unused end of
// the last chunk is all the table ever over-allocates.
const profileChunkShift = 14

// maxProfileEntries is the largest arena int32 offsets address; tests
// lower it to reach the refusal with a graph they can hold.
var maxProfileEntries int64 = math.MaxInt32

// segmentEntries returns Σ (min(deg(v), k) + 1), the entries of a table
// that holds every vertex, headers included. Offsets are int32 — half the
// footprint of the per-vertex array — so a table of 2³¹ or more entries is
// refused instead of silently wrapping.
func segmentEntries(n, k int32, deg func(v int32) int32) (int64, error) {
	var total int64
	for v := int32(0); v < n; v++ {
		total += int64(min(deg(v), k)) + 1
		if total > maxProfileEntries {
			return 0, fmt.Errorf("partition: neighbor profile needs more than 2^31-1 entries (Σ (min(deg, k=%d) + 1) passes it at vertex %d of %d); refine with fewer partitions or a smaller graph", k, v, n)
		}
	}
	return total, nil
}

// NewNeighborProfile returns the empty profile of g for k partitions: no
// vertex has a segment yet. It fails when the table of every vertex would
// outgrow its int32 offsets (see segmentEntries) — checked here, before
// anything is allocated, so whatever subset is materialized later fits.
// The sum is at most both n + the half-edge count and n·(k+1), so the
// per-vertex sum only runs for a graph that passes the limit on both.
func NewNeighborProfile(g *graph.Graph, k int32) (*NeighborProfile, error) {
	n := g.NumVertices()
	if int64(n)+min(g.NumHalfEdges(), int64(n)*int64(k)) > maxProfileEntries {
		if _, err := segmentEntries(n, k, g.Degree); err != nil {
			return nil, err
		}
	}
	words := MaskWords(n)
	np := &NeighborProfile{k: k, off: make([]int32, n), start: make([]int32, k+1),
		words: make([]uint64, words), summary: make([]uint64, MaskWords(int32(words)))}
	for v := range np.off {
		np.off[v] = -1
	}
	return np, nil
}

// BuildNeighborProfile constructs the profile of g under assign with
// every vertex materialized, in O(|V| + |E|): the reference the sparse
// table is tested against, and what tests and benchmarks of the pair
// kernel seed from.
func BuildNeighborProfile(g *graph.Graph, assign []int32, k int32, workers int) (*NeighborProfile, error) {
	np, err := NewNeighborProfile(g, k)
	if err != nil {
		return nil, err
	}
	all := make([]int32, g.NumVertices())
	for v := range all {
		all[v] = int32(v)
	}
	np.Materialize(g, assign, nil, all, workers)
	return np, nil
}

// Materialized reports whether v has a segment.
func (np *NeighborProfile) Materialized(v int32) bool { return np.off[v] >= 0 }

// Materialize gives every vertex of vs whose mask bit is set (a nil mask
// admits all) and that has no segment yet one, filled from assign; vs
// lists vertices in any order, and a repeated one gets one segment. Cost
// O(len(vs)) to find the new ones, O(new + span/4096) to order them by
// id (SortCandidates, no comparison), O(new + k) to lay them out at the
// arena's tail by (owner, id) — a serial counting sort of their slots in
// two ascending-id passes — plus O(Σ deg) over them to fill; the chunks
// the offsets reach are allocated.
// The new segments are disjoint, so `workers` goroutines fill them over
// runs of near-equal half-edge count, each with its own accumulators: the
// table is byte-identical for every worker count. Must not run
// concurrently with any other use of the profile.
func (np *NeighborProfile) Materialize(g *graph.Graph, assign []int32, mask *Bitset, vs []int32, workers int) {
	fresh := np.fresh[:0]
	for _, v := range vs {
		if np.off[v] < 0 && (mask == nil || mask.Get(v)) {
			fresh = append(fresh, v)
		}
	}
	np.fresh = fresh
	if len(fresh) == 0 {
		return
	}
	fresh = SortCandidates(fresh, np.words, np.summary)
	// start[q+1] counts owner q's slots, then start[q] is where its region
	// begins (inside int32 by the constructor's check).
	start := np.start
	clear(start)
	var halfEdges int64
	for _, v := range fresh {
		start[assign[v]+1] += min(g.Degree(v), np.k) + 1
		halfEdges += int64(g.Degree(v))
	}
	start[0] = int32(np.tail)
	for q := int32(1); q <= np.k; q++ {
		start[q] += start[q-1]
	}
	np.tail = int64(start[np.k])
	var last int32
	for _, v := range fresh {
		q := assign[v]
		np.off[v] = start[q]
		last = max(last, start[q])
		start[q] += min(g.Degree(v), np.k) + 1
	}
	// The chunks the new headers reach, one allocation each: a single one
	// for a round's whole arena (15 MB on rmat100k at k = 128), when it
	// falls inside a GC cycle, is all fresh memory — the last call's garbage
	// is not swept yet — and peak RSS read 45 or 54 MB by that race.
	for size := 1<<profileChunkShift + int(np.k) + 1; len(np.chunks) <= int(last>>profileChunkShift); {
		np.chunks = append(np.chunks, profileChunk{make([]int32, size), make([]int64, size)})
	}
	// Cut fresh into at most `workers` runs at the half-edge quantiles;
	// the last run takes whatever is left.
	workers = max(workers, 1)
	var wg sync.WaitGroup
	var seen int64
	lo := 0
	for part := 1; part <= workers; part++ {
		target := halfEdges * int64(part) / int64(workers)
		hi := lo
		for hi < len(fresh) && (seen < target || part == workers) {
			seen += int64(g.Degree(fresh[hi]))
			hi++
		}
		if hi == lo {
			continue
		}
		wg.Add(1)
		go func(vs []int32) {
			defer wg.Done()
			np.fill(g, assign, vs)
		}(fresh[lo:hi])
		lo = hi
	}
	wg.Wait()
}

// fill builds the (laid out, empty) segments of the vertices vs.
func (np *NeighborProfile) fill(g *graph.Graph, assign []int32, vs []int32) {
	buf := make([]int64, np.k)
	mask := make([]uint64, MaskWords(np.k))
	var tl []int32
	for _, v := range vs {
		adj := g.Neighbors(v)
		w := g.EdgeWeights(v)
		w = w[:len(adj)]
		for i, u := range adj {
			q := assign[u]
			buf[q] += int64(w[i])
			mask[q>>6] |= 1 << (q & 63)
		}
		tl = drainMask(mask, tl[:0])
		c, h := np.header(np.off[v])
		c.parts[h], c.ws[h] = int32(len(tl)), int64(g.VertexSize(v))
		parts, ws := c.parts[h+1:], c.ws[h+1:]
		for i, q := range tl {
			parts[i], ws[i] = q, buf[q]
			buf[q] = 0
		}
	}
}

// header locates the header entry at arena offset off: the chunk it
// lives in and its index there. The segment's entries follow it.
func (np *NeighborProfile) header(off int32) (c *profileChunk, h int) {
	return &np.chunks[off>>profileChunkShift], int(off & (1<<profileChunkShift - 1))
}

// Offset returns the arena offset of v's header, the key SegmentAt reads
// by. The pair kernel gathers its candidates' offsets in one pass before
// it walks any segment.
func (np *NeighborProfile) Offset(v int32) int32 { return np.off[v] }

// SegmentAt returns the live entries of the segment whose header lies at
// off — partitions ascending, each with its nonzero summed weight — and
// its vertex's data size. The slices alias the table: read-only, valid
// until the next MoveNeighbor on that vertex.
func (np *NeighborProfile) SegmentAt(off int32) (parts []int32, ws []int64, size int64) {
	c, h := np.header(off)
	lo, hi := h+1, h+1+int(c.parts[h])
	return c.parts[lo:hi], c.ws[lo:hi], c.ws[h]
}

// Segment is SegmentAt(Offset(v)).
func (np *NeighborProfile) Segment(v int32) (parts []int32, ws []int64, size int64) {
	return np.SegmentAt(np.off[v])
}

// MoveNeighbor records that v's neighbor moved from partition `from` to
// `to`, shifting the connecting edge weight w between the two entries of
// v's segment. O(t) worst case for the entry insert/remove shift, with
// t = live entries of v. A vertex without a segment has nothing to patch:
// if it is ever materialized, it is filled from the assignment of then.
func (np *NeighborProfile) MoveNeighbor(v, from, to int32, w int64) {
	if from == to || w == 0 || np.off[v] < 0 {
		return
	}
	c, h := np.header(np.off[v])
	parts, ws := c.parts, c.ws
	base, end := h+1, h+1+int(parts[h])
	// Decrement (and possibly remove) the `from` entry; it must exist.
	i := base + lowerBound(parts[base:end], from)
	ws[i] -= w
	if ws[i] == 0 {
		copy(parts[i:end-1], parts[i+1:end])
		copy(ws[i:end-1], ws[i+1:end])
		end--
		parts[h]--
	}
	// Increment (or insert) the `to` entry.
	j := base + lowerBound(parts[base:end], to)
	if j < end && parts[j] == to {
		ws[j] += w
		return
	}
	copy(parts[j+1:end+1], parts[j:end])
	copy(ws[j+1:end+1], ws[j:end])
	parts[j] = to
	ws[j] = w
	parts[h]++
}

// lowerBound returns the first index of the ascending parts whose entry
// is at least q.
func lowerBound(parts []int32, q int32) int {
	lo, hi := 0, len(parts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if parts[mid] < q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
