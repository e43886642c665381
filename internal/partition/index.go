package partition

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"paragon/internal/graph"
)

// This file holds the incrementally maintained hot-path data structures
// behind the ARAGON/PARAGON refiners. The naive refinement loop re-scans
// every vertex of the graph for every partition pair, O(k²·|V|) of pure
// scanning per sweep, and walks every candidate's adjacency to test it
// for the boundary. The Index keeps a per-vertex external-neighbor count
// (the boundary test) and the per-partition incident-edge sums, both
// updated in O(deg(v)) on every Move; the wave engine's Shadow lists the
// movable members of every partition, so a pair's candidates cost
// O(|B_i| + |B_j|). See DESIGN.md §"Hot-path data structures" for the
// complexity table and the Move invariants.

// PairIndexer is the minimal surface the pairwise refiner needs: candidate
// enumeration for a partition pair and delta-maintained vertex moves.
// Index (full boundary tracking) and Shadow (the wave engine's shared
// view of the master, which tracks no boundary and lists the movable
// members of every master partition) both implement it, and
// each takes one kind of mask: an Index only nil (its live boundary), a
// Shadow only the mask it is synced to. Either panics on the other.
type PairIndexer interface {
	// Partitioning returns the decomposition the indexer maintains;
	// Move must keep its Assign array in sync.
	Partitioning() *Partitioning
	// Master returns the decomposition a candidate seeded without a profile
	// reads its neighbors' owners from; on the two partitions of a pair it
	// agrees with Partitioning until that pair's first move.
	Master() *Partitioning
	// AppendPairUnsorted appends the movable candidates of the pair
	// (pi, pj) to dst in an order the indexer chooses and returns dst; the
	// caller orders them (SortCandidates). With a mask, the candidates are
	// exactly the members of the two partitions whose mask bit is set;
	// without one they are the pair's boundary vertices.
	AppendPairUnsorted(dst []int32, pi, pj int32, allowed *Bitset) []int32
	// Move reassigns v, updating the underlying partitioning and every
	// incrementally maintained structure.
	Move(v, to int32)
}

// Index is the full incremental refinement index over a partitioning:
// per-vertex external-neighbor counts (the boundary test) and
// per-partition incident-edge sums (ps of Eq. 10). It keeps no
// membership lists: the wave engine's Shadow lists the movable members.
//
// Invariants preserved by Move, for every vertex v and partition q:
//
//	ext[v] == |{u ∈ N(v) : Assign[u] != Assign[v]}|;
//	incident[q] == Σ_{v : Assign[v] == q} deg(v).
//
// Queries are O(1) but for the O(|V|) scans (Boundary, the pair gather);
// Move is O(deg(v)).
type Index struct {
	g        *graph.Graph
	p        *Partitioning
	ext      []int32 // per-vertex count of neighbors outside own partition
	incident []int64 // per-partition Σ deg(v)
}

// BuildIndex constructs the index for p over g in O(|V| + |E|). The index
// keeps references to both; all subsequent moves must go through Move so
// the maintained structures stay consistent with p.Assign.
//
// The build is one pass over g.VertexRanges(GOMAXPROCS), one goroutine
// per range: tally sets the range's ext counts and sums its incident
// edges per partition into the range's own row, and the rows are added up
// after the join. The sums are integers, so the state is the same for
// every GOMAXPROCS.
func BuildIndex(g *graph.Graph, p *Partitioning) *Index {
	k := p.K
	ix := &Index{
		g:        g,
		p:        p,
		ext:      make([]int32, g.NumVertices()),
		incident: make([]int64, k),
	}
	bounds := g.VertexRanges(runtime.GOMAXPROCS(0))
	inc := make([][]int64, len(bounds)-1)
	var wg sync.WaitGroup
	for r := range inc {
		inc[r] = make([]int64, k)
		wg.Add(1)
		go func(rinc []int64, lo, hi int32) {
			defer wg.Done()
			ix.tally(lo, hi, rinc)
		}(inc[r], bounds[r], bounds[r+1])
	}
	wg.Wait()
	for _, rinc := range inc {
		for q, d := range rinc {
			ix.incident[q] += d
		}
	}
	return ix
}

// Rebuild re-derives every maintained structure from the current
// p.Assign in O(|V| + |E|), reusing the backing arrays. It is how a pooled
// member scratch of the portfolio layer re-seeds an Index after
// overwriting Assign wholesale — cheaper than BuildIndex by all the
// allocations, and valid for the same (g, p) the index was built over. It
// runs BuildIndex's pass as one range on the calling goroutine: portfolio
// members already run one per worker.
func (ix *Index) Rebuild() {
	clear(ix.incident)
	ix.tally(0, ix.g.NumVertices(), ix.incident)
}

// tally adds into inc[q] the degrees of the vertices of [lo, hi) in
// partition q, and sets their ext.
func (ix *Index) tally(lo, hi int32, inc []int64) {
	assign := ix.p.Assign
	for v := lo; v < hi; v++ {
		pv := assign[v]
		inc[pv] += int64(ix.g.Degree(v))
		var ext int32
		for _, u := range ix.g.Neighbors(v) {
			if assign[u] != pv {
				ext++
			}
		}
		ix.ext[v] = ext
	}
}

// Partitioning returns the decomposition this index maintains.
func (ix *Index) Partitioning() *Partitioning { return ix.p }

// Master implements PairIndexer: refined serially, an index is its own.
func (ix *Index) Master() *Partitioning { return ix.p }

// Graph returns the graph snapshot this index currently targets.
func (ix *Index) Graph() *graph.Graph { return ix.g }

// Retarget switches the index to a new graph snapshot over the same
// vertex-id space, delta-repairing only the dirty vertices instead of
// the O(|V| + |E|) Rebuild — the operation behind the streaming-ingest
// session's "reuse the live index across epochs" contract. dirty must
// list, without duplicates, every vertex whose adjacency differs
// between the old snapshot and g (both endpoints of every added or
// removed edge); vertices outside dirty are assumed bit-identical in
// both snapshots. Cost: O(Σ_{v ∈ dirty} (deg_old(v) + deg_new(v))).
//
// The assignment is untouched (membership is a function of the
// partitioning, not the graph); the per-partition incident-edge sums
// take the degree delta of each dirty vertex and the external-neighbor
// counts of dirty vertices are recomputed against g. A duplicate entry
// in dirty would double-count its degree delta, which is why the
// contract forbids duplicates rather than hiding them behind a set.
func (ix *Index) Retarget(g *graph.Graph, dirty []int32) error {
	old := ix.g
	if g.NumVertices() != old.NumVertices() {
		return fmt.Errorf("partition: Retarget to %d vertices, index holds %d", g.NumVertices(), old.NumVertices())
	}
	for _, v := range dirty {
		ix.incident[ix.p.Assign[v]] += int64(g.Degree(v)) - int64(old.Degree(v))
	}
	ix.g = g
	for _, v := range dirty {
		pv := ix.p.Assign[v]
		var ext int32
		for _, u := range g.Neighbors(v) {
			if ix.p.Assign[u] != pv {
				ext++
			}
		}
		ix.ext[v] = ext
	}
	return nil
}

// Move reassigns v to partition `to` in O(deg(v)): the external-neighbor
// counts of v and all its neighbors and the incident-edge sums are
// delta-updated. A self-move is a no-op.
func (ix *Index) Move(v, to int32) {
	from := ix.p.Assign[v]
	if from == to {
		return
	}
	deg := int64(ix.g.Degree(v))
	ix.incident[from] -= deg
	ix.incident[to] += deg
	ix.p.Assign[v] = to
	var extV int32
	for _, u := range ix.g.Neighbors(v) {
		switch ix.p.Assign[u] {
		case from:
			ix.ext[u]++ // v left u's partition
		case to:
			ix.ext[u]-- // v joined u's partition
		}
		if ix.p.Assign[u] != to {
			extV++
		}
	}
	ix.ext[v] = extV
}

// IsBoundary reports whether v has a neighbor outside its own partition,
// in O(1) from the maintained count.
func (ix *Index) IsBoundary(v int32) bool { return ix.ext[v] > 0 }

// ExternalNeighbors returns the maintained count of v's neighbors outside
// its own partition.
func (ix *Index) ExternalNeighbors(v int32) int32 { return ix.ext[v] }

// Boundary returns every boundary vertex in ascending order — one O(|V|)
// sweep over the maintained counts, with no edge traversal.
func (ix *Index) Boundary() (dst []int32) {
	for v := int32(0); v < int32(len(ix.ext)); v++ {
		if ix.ext[v] > 0 {
			dst = append(dst, v)
		}
	}
	return dst
}

// IncidentEdges returns a copy of the maintained per-partition
// incident-edge sums — the ps[i] of Eq. 10, without the O(|V|) rescan of
// Partitioning.IncidentEdges.
func (ix *Index) IncidentEdges() []int64 {
	return ix.AppendIncidentEdges(nil)
}

// AppendIncidentEdges appends the maintained per-partition incident-edge
// sums to dst and returns dst, so per-round callers can reuse one
// backing array.
func (ix *Index) AppendIncidentEdges(dst []int64) []int64 {
	return append(dst, ix.incident...)
}

// AppendPairCandidates appends the pair's boundary vertices to dst in
// ascending vertex order, the order the refiner seeds them in. The gather
// is AppendPairUnsorted's, which already yields that order.
func (ix *Index) AppendPairCandidates(dst []int32, pi, pj int32, allowed *Bitset) []int32 {
	return ix.AppendPairUnsorted(dst, pi, pj, allowed)
}

// AppendPairUnsorted implements PairIndexer: the pair's boundary vertices,
// in ascending order, from one O(|V|) scan of the assignment and the
// maintained counts. No production sweep gathers here — they gather from
// a Shadow's movable lists — so the scan serves probes and tests. An
// Index takes no mask; a masked gather is a Shadow's.
func (ix *Index) AppendPairUnsorted(dst []int32, pi, pj int32, allowed *Bitset) []int32 {
	if allowed != nil {
		panic("partition: Index.AppendPairUnsorted takes no mask (a masked gather is a Shadow's)")
	}
	for v, q := range ix.p.Assign {
		if (q == pi || q == pj) && ix.ext[v] > 0 {
			dst = append(dst, int32(v))
		}
	}
	return dst
}

// SortCandidates sorts the vertex ids vs ascending in place — the order
// the refiner's heap tie-breaking depends on — without a comparison, and
// returns the sorted prefix: a repeated id is kept once. words and summary
// are caller-owned bitmaps, all-zero on entry and restored to all-zero on
// return: words covers the vertex-id space (MaskWords(|V|)), summary has
// one bit per word of it (MaskWords(len(words))). The ids are set as bits
// of words, the words they touch as bits of summary, and the summary's
// [min, max] span is drained low bit first, each set bit naming the next
// non-empty word: O(c + span/4096) for c ids, so a pair whose few
// boundary vertices lie scattered over two far-apart id ranges pays for
// the vertices, not for the empty words between them.
func SortCandidates(vs []int32, words, summary []uint64) []int32 {
	if len(vs) < 2 {
		return vs
	}
	lo, hi := vs[0]>>6, vs[0]>>6
	for _, v := range vs {
		w := v >> 6
		words[w] |= 1 << (uint32(v) & 63)
		summary[w>>6] |= 1 << (uint32(w) & 63)
		lo, hi = min(lo, w), max(hi, w)
	}
	n := 0
	for si := int(lo >> 6); si <= int(hi>>6); si++ {
		sb := summary[si]
		if sb == 0 {
			continue
		}
		summary[si] = 0
		for ; sb != 0; sb &= sb - 1 {
			wi := si<<6 + bits.TrailingZeros64(sb)
			b := words[wi]
			words[wi] = 0
			for base := int32(wi << 6); b != 0; b &= b - 1 {
				vs[n] = base + int32(bits.TrailingZeros64(b))
				n++
			}
		}
	}
	return vs[:n]
}

// Validate checks every maintained invariant against a recount from
// p.Assign with plain loops, sharing no code with BuildIndex or Rebuild:
// ext and the incident sums equal their definitions. O(|V| + |E|); the
// tests and the benchmark's per-call gate run it.
func (ix *Index) Validate() error {
	assign := ix.p.Assign
	incident := make([]int64, ix.p.K)
	for v, q := range assign {
		var ext int32
		for _, u := range ix.g.Neighbors(int32(v)) {
			if assign[u] != q {
				ext++
			}
		}
		if ix.ext[v] != ext {
			return fmt.Errorf("index: ext[%d] = %d, want %d", v, ix.ext[v], ext)
		}
		incident[q] += int64(ix.g.Degree(int32(v)))
	}
	for q := range incident {
		if ix.incident[q] != incident[q] {
			return fmt.Errorf("index: incident[%d] = %d, want %d", q, ix.incident[q], incident[q])
		}
	}
	return nil
}

// Shadow is the wave engine's view of a master Index, split by who writes
// what. The view, the shadow's own copy of the assignment, is written by
// the workers: Move is one store, and the pairs of a wave are
// partition-disjoint, so they write disjoint entries. The movable lists
// are written by the coordinator only, between waves (Sync, Commit):
//
//	movable[q] == {v : master.Assign[v] == q, mask bit of v set}, v at pos[v],
//	pos[v] == -1 for every v not listed.
//
// A pair gathers its candidates once, before its first move, and no other
// pair of its wave moves a vertex of its two partitions, so at that point
// the master and the view agree on them: the pair's candidates are two
// list copies, O(|B_i| + |B_j|), not a mask test per member of both
// partitions. The shadow tracks no boundary counts: scheduled refinement
// always runs under the round's movable mask, which subsumes the boundary
// test.
type Shadow struct {
	ix      *Index        // the master: written through Commit, at wave barriers only
	p       *Partitioning // the view
	movable [][]int32     // q -> the mask-set vertices the master puts in q
	pos     []int32       // vertex -> position in its list, -1 if not listed
	mask    *Bitset       // the mask the lists follow; nil before the first Sync
}

// NewShadow returns a shadow of ix with its own copy of the assignment,
// synced to no mask yet. Whoever moves the master through Commit only
// leaves the two in agreement without ever copying again (DESIGN.md §14).
func (ix *Index) NewShadow() *Shadow {
	s := &Shadow{
		ix:      ix,
		p:       &Partitioning{K: ix.p.K, Assign: make([]int32, len(ix.ext))},
		movable: make([][]int32, ix.p.K),
		pos:     make([]int32, len(ix.ext)),
	}
	for v := range s.pos {
		s.pos[v] = -1
	}
	s.Resync()
	return s
}

// Resync re-seeds the view from the index, after moves the shadow did not
// see, and empties the lists, reusing every backing array: a pooled shadow
// starts its next call the way a new one would, synced to no mask.
func (s *Shadow) Resync() {
	copy(s.p.Assign, s.ix.p.Assign)
	s.unlistAll()
	s.mask = nil
}

// unlistAll empties every list in O(listed).
func (s *Shadow) unlistAll() {
	for q, l := range s.movable {
		for _, v := range l {
			s.pos[v] = -1
		}
		s.movable[q] = l[:0]
	}
}

// Partitioning returns the shadow's own view of the decomposition.
func (s *Shadow) Partitioning() *Partitioning { return s.p }

// Master implements PairIndexer: the index's decomposition, which no
// worker writes during a wave — the wave-start view of every partition.
func (s *Shadow) Master() *Partitioning { return s.ix.p }

// Sync makes mask the mask the lists follow. changed must list every
// vertex whose bit differs from what the shadow last saw of it — in any
// order, repeats and unchanged vertices allowed. A mask the shadow was not
// synced to before is taken whole instead, whatever changed says: the
// lists start over from its set bits, each pre-sized from a count.
// O(len(changed)), or O(K + |V|/64 + listed + set bits) on a change of
// mask. Between waves only.
func (s *Shadow) Sync(mask *Bitset, changed []int32) {
	if mask != s.mask {
		s.unlistAll()
		s.mask = mask
		count := make([]int32, len(s.movable))
		mask.Range(func(v int32) { count[s.ix.p.Assign[v]]++ })
		s.reserve(count)
		mask.Range(s.list)
		return
	}
	for _, v := range changed {
		switch on := mask.Get(v); {
		case on && s.pos[v] < 0:
			s.list(v)
		case !on && s.pos[v] >= 0:
			s.unlist(v)
		}
	}
}

// reserve gives every list room for count[q] members and headroom for
// the vertices later rounds admit. The lists that lack it are carved out
// of one backing array, each window capped, so a list that outgrows its
// window later moves out alone.
func (s *Shadow) reserve(count []int32) {
	need := 0
	for q, c := range count {
		if cap(s.movable[q]) < int(c) {
			need += listCap(c)
		}
	}
	arena := make([]int32, need)
	for q, c := range count {
		if cap(s.movable[q]) < int(c) {
			n := listCap(c)
			s.movable[q], arena = arena[:0:n], arena[n:]
		}
	}
}

// listCap is a list's capacity for c synced members: twice that, since a
// mesh's lists grow up to fourfold over its refinement rounds as the cut
// roughens.
func listCap(c int32) int { return 2*int(c) + 16 }

// list appends v to its master owner's list.
func (s *Shadow) list(v int32) {
	q := s.ix.p.Assign[v]
	s.pos[v] = int32(len(s.movable[q]))
	s.movable[q] = append(s.movable[q], v)
}

// unlist swap-deletes v from its master owner's list.
func (s *Shadow) unlist(v int32) {
	q := s.ix.p.Assign[v]
	l := s.movable[q]
	i, last := s.pos[v], l[len(l)-1]
	l[i], s.pos[last] = last, i
	s.movable[q], s.pos[v] = l[:len(l)-1], -1
}

// Move implements PairIndexer: one store into the view. Concurrent calls
// are safe iff they move vertices of disjoint partition pairs, which the
// tournament schedule guarantees within a wave.
func (s *Shadow) Move(v, to int32) { s.p.Assign[v] = to }

// Commit applies to the master index a move the view kept, at a wave
// barrier: v's list entry, if it has one, moves along to partition to,
// then Index.Move. Between waves only.
func (s *Shadow) Commit(v, to int32) {
	listed := s.pos[v] >= 0
	if listed {
		s.unlist(v)
	}
	s.ix.Move(v, to)
	if listed {
		s.list(v)
	}
}

// AppendPairUnsorted implements PairIndexer: the two movable lists. A
// Shadow tracks no boundary counts, so the mask is mandatory, and it must
// be the one the shadow is synced to — any other would silently get that
// one's candidates. The shadow carries no ordering scratch — it is shared
// by every worker, so each refiner sorts with its own.
func (s *Shadow) AppendPairUnsorted(dst []int32, pi, pj int32, allowed *Bitset) []int32 {
	if allowed == nil {
		panic("partition: Shadow.AppendPairUnsorted requires an allowed mask (shadows keep no boundary counts)")
	}
	if allowed != s.mask {
		panic("partition: Shadow.AppendPairUnsorted with a mask the shadow is not synced to (Sync first)")
	}
	return append(append(dst, s.Masked(pi)...), s.Masked(pj)...)
}

// Masked returns the members of master partition q whose bit is set in
// the synced mask, in list order, valid until the next Commit or Sync.
func (s *Shadow) Masked(q int32) []int32 { return s.movable[q] }

// Validate checks the lists against a scan of the master: every mask-set
// vertex sits at pos[v] of its master owner's list, every other one is
// unlisted, and each list is exactly as long as that count. O(|V|);
// intended for tests.
func (s *Shadow) Validate() error {
	sizes := make([]int32, len(s.movable))
	for v, q := range s.ix.p.Assign {
		i := s.pos[v]
		if s.mask == nil || !s.mask.Get(int32(v)) {
			if i != -1 {
				return fmt.Errorf("shadow: vertex %d is listed at %d with its mask bit clear", v, i)
			}
			continue
		}
		if l := s.movable[q]; i < 0 || int(i) >= len(l) || l[i] != int32(v) {
			return fmt.Errorf("shadow: pos[%d] = %d is not where list %d holds it", v, i, q)
		}
		sizes[q]++
	}
	for q, l := range s.movable {
		if int32(len(l)) != sizes[q] {
			return fmt.Errorf("shadow: list %d has %d members, its partition %d masked ones", q, len(l), sizes[q])
		}
	}
	return nil
}

// drainMask appends the set bits of mask to tlist in ascending order and
// clears them, without a sort.
func drainMask(mask []uint64, tlist []int32) []int32 {
	for wi, b := range mask {
		if b == 0 {
			continue
		}
		mask[wi] = 0
		base := int32(wi << 6)
		for b != 0 {
			tlist = append(tlist, base+int32(bits.TrailingZeros64(b)))
			b &= b - 1
		}
	}
	return tlist
}

// MaskWords returns the bitmap length covering k ids: what the profile
// fill needs for k partitions, SortCandidates for k vertices and, one
// level up, for that many words.
func MaskWords(k int32) int { return (int(k) + 63) / 64 }
