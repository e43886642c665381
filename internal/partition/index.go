package partition

import (
	"fmt"
	"math/bits"
	"slices"

	"paragon/internal/graph"
)

// This file holds the incrementally maintained hot-path data structures
// behind the ARAGON/PARAGON refiners. The naive refinement loop re-scans
// every vertex of the graph for every partition pair — O(k²·|V|) of pure
// scanning per sweep. The Index replaces those scans with per-partition
// vertex buckets plus a per-vertex external-neighbor count, both updated
// in O(deg(v)) on every Move, so enumerating the candidates of a pair
// costs O(|P_i| + |P_j|) instead of O(|V|). See DESIGN.md §"Hot-path
// data structures" for the complexity table and the Move invariants.

// PairIndexer is the minimal surface the pairwise refiner needs: candidate
// enumeration for a partition pair and delta-maintained vertex moves.
// Index (full boundary tracking) and Shadow (the wave engine's shared
// bucket view of the master, which tracks no boundary and keeps the
// movable members of every bucket as a prefix) both implement it, and
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
	// (pi, pj) to dst in bucket (unspecified) order and returns dst; the
	// caller orders them (SortCandidates). With a mask, the candidates are
	// exactly the members of the two partitions whose mask bit is set;
	// without one they are the pair's boundary vertices.
	AppendPairUnsorted(dst []int32, pi, pj int32, allowed *Bitset) []int32
	// Move reassigns v, updating the underlying partitioning and every
	// incrementally maintained structure.
	Move(v, to int32)
}

// Index is the full incremental refinement index over a partitioning:
// per-partition vertex buckets, per-vertex external-neighbor counts (the
// boundary test), and per-partition incident-edge sums (ps of Eq. 10).
//
// Invariants preserved by Move, for every vertex v and partition q:
//
//	buckets[q] holds exactly {v : Assign[v] == q}, each at pos[v];
//	ext[v] == |{u ∈ N(v) : Assign[u] != Assign[v]}|;
//	incident[q] == Σ_{v ∈ buckets[q]} deg(v).
//
// All queries are O(1) or output-sensitive; Move is O(deg(v)).
type Index struct {
	g        *graph.Graph
	p        *Partitioning
	buckets  [][]int32 // per-partition vertex lists (unordered, swap-delete)
	pos      []int32   // vertex -> position in its bucket
	ext      []int32   // per-vertex count of neighbors outside own partition
	incident []int64   // per-partition Σ deg(v)
}

// BuildIndex constructs the index for p over g in O(|V| + |E|). The index
// keeps references to both; all subsequent moves must go through Move so
// the maintained structures stay consistent with p.Assign.
func BuildIndex(g *graph.Graph, p *Partitioning) *Index {
	n := g.NumVertices()
	ix := &Index{
		g:        g,
		p:        p,
		buckets:  make([][]int32, p.K),
		pos:      make([]int32, n),
		ext:      make([]int32, n),
		incident: make([]int64, p.K),
	}
	// Exact-size bucket preallocation: a counting pass first, then one
	// allocation per bucket with growth slack. Appending into nil
	// buckets instead costs O(K·log(|V|/K)) reallocations, which shows
	// up as allocation counts that grow with the graph size.
	cnt := make([]int32, p.K)
	for v := int32(0); v < n; v++ {
		cnt[p.Assign[v]]++
	}
	for q := range ix.buckets {
		ix.buckets[q] = make([]int32, 0, bucketCap(cnt[q]))
	}
	ix.Rebuild()
	return ix
}

// Rebuild re-derives every maintained structure from the current
// p.Assign in O(|V| + |E|), reusing all backing arrays (bucket capacity
// only ever grows). It is how a pooled member scratch of the portfolio
// layer re-seeds an Index after overwriting Assign wholesale — cheaper
// than BuildIndex by all the allocations, and valid for the same (g, p)
// the index was built over.
func (ix *Index) Rebuild() {
	for q := range ix.buckets {
		ix.buckets[q] = ix.buckets[q][:0]
		ix.incident[q] = 0
	}
	n := ix.g.NumVertices()
	for v := int32(0); v < n; v++ {
		pv := ix.p.Assign[v]
		ix.pos[v] = int32(len(ix.buckets[pv]))
		ix.buckets[pv] = append(ix.buckets[pv], v)
		ix.incident[pv] += int64(ix.g.Degree(v))
		var ext int32
		for _, u := range ix.g.Neighbors(v) {
			if ix.p.Assign[u] != pv {
				ext++
			}
		}
		ix.ext[v] = ext
	}
}

// bucketCap adds headroom for refinement moves on top of a bucket's
// seeded size, so steady-state rounds rarely reallocate.
func bucketCap(n int32) int32 { return n + n/8 + 8 }

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
// Buckets and positions are untouched (membership is a function of the
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

// Move reassigns v to partition `to` in O(deg(v)): the bucket membership,
// the external-neighbor counts of v and all its neighbors, and the
// incident-edge sums are all delta-updated. A self-move is a no-op.
func (ix *Index) Move(v, to int32) {
	from := ix.p.Assign[v]
	if from == to {
		return
	}
	l := ix.buckets[from]
	i, last := ix.pos[v], int32(len(l))-1
	l[i] = l[last]
	ix.pos[l[i]] = i
	ix.buckets[from] = l[:last]
	ix.pos[v] = int32(len(ix.buckets[to]))
	ix.buckets[to] = append(ix.buckets[to], v)
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

// AppendPairCandidates is AppendPairUnsorted followed by a comparison
// sort: the candidates in ascending vertex order (the order the scan-based
// enumeration produced), for callers without an ordering scratch.
func (ix *Index) AppendPairCandidates(dst []int32, pi, pj int32, allowed *Bitset) []int32 {
	n0 := len(dst)
	dst = ix.AppendPairUnsorted(dst, pi, pj, allowed)
	slices.Sort(dst[n0:])
	return dst
}

// AppendPairUnsorted implements PairIndexer: the pair's boundary vertices,
// gathered from the two buckets — O(|P_i| + |P_j|) — instead of a full
// vertex scan. An Index takes no mask; a masked gather is a Shadow's.
func (ix *Index) AppendPairUnsorted(dst []int32, pi, pj int32, allowed *Bitset) []int32 {
	if allowed != nil {
		panic("partition: Index.AppendPairUnsorted takes no mask (a masked gather is a Shadow's)")
	}
	for _, b := range [2][]int32{ix.buckets[pi], ix.buckets[pj]} {
		for _, v := range b {
			if ix.ext[v] > 0 {
				dst = append(dst, v)
			}
		}
	}
	return dst
}

// SortCandidates sorts the distinct vertex ids vs ascending in place —
// the order the refiner's heap tie-breaking depends on — without a
// comparison. words and summary are caller-owned bitmaps, all-zero on
// entry and restored to all-zero on return: words covers the vertex-id
// space (MaskWords(|V|)), summary has one bit per word of it
// (MaskWords(len(words))). The ids are set as bits of words, the words
// they touch as bits of summary, and the summary's [min, max] span is
// drained low bit first, each set bit naming the next non-empty word:
// O(c + span/4096) for c ids, so a pair whose few boundary vertices lie
// scattered over two far-apart id ranges pays for the vertices, not for
// the empty words between them.
func SortCandidates(vs []int32, words, summary []uint64) {
	if len(vs) < 2 {
		return
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
}

// Validate checks every maintained invariant against a from-scratch
// rebuild. O(|V| + |E|); intended for tests.
func (ix *Index) Validate() error {
	fresh := BuildIndex(ix.g, ix.p.Clone())
	for v := range ix.ext {
		if ix.ext[v] != fresh.ext[v] {
			return fmt.Errorf("index: ext[%d] = %d, want %d", v, ix.ext[v], fresh.ext[v])
		}
	}
	for q := int32(0); q < ix.p.K; q++ {
		if ix.incident[q] != fresh.incident[q] {
			return fmt.Errorf("index: incident[%d] = %d, want %d", q, ix.incident[q], fresh.incident[q])
		}
		a := append([]int32(nil), ix.buckets[q]...)
		b := append([]int32(nil), fresh.buckets[q]...)
		slices.Sort(a)
		slices.Sort(b)
		if !slices.Equal(a, b) {
			return fmt.Errorf("index: bucket %d membership diverged", q)
		}
	}
	for v, q := range ix.p.Assign {
		if ix.pos[v] < 0 || ix.pos[v] >= int32(len(ix.buckets[q])) || ix.buckets[q][ix.pos[v]] != int32(v) {
			return fmt.Errorf("index: pos[%d] inconsistent with bucket %d", v, q)
		}
	}
	return nil
}

// Shadow is the pair-level scheduler's live view: one mutable bucket
// shadow of a master Index with its own copy of the assignment, shared by
// every group server. Groups own disjoint partitions and every tournament
// wave's pairs are partition-disjoint, so concurrent pair refinements
// touch disjoint buckets, disjoint pos entries, and disjoint Assign
// entries of the shared view — no per-group copies, no synchronization
// beyond the scheduler's wave barriers. It tracks no boundary counts —
// scheduled refinement always runs under the round's movable mask, which
// subsumes the boundary test — so Move is O(1), not O(deg).
//
// The shadow is synced to that one mask (Sync): every bucket keeps its
// mask-set members as a prefix,
//
//	buckets[q].vs[:front] == {v : Assign[v] == q, mask bit of v set},
//
// which Move preserves, so a pair's candidates are two prefix copies —
// O(|B_i| + |B_j|), not a mask test per member of both partitions.
type Shadow struct {
	p       *Partitioning
	master  *Partitioning // the index's: written at wave barriers only
	buckets []shadowBucket
	pos     []int32 // vertex -> position in its bucket
	mask    *Bitset // the mask the prefixes are synced to; nil before the first Sync
}

// shadowBucket is one partition's vertex list with its masked prefix.
// Both the slice header and front are rewritten on every move into or out
// of the partition, by whichever worker refines it this wave, so each
// bucket fills a cache line pair of its own (the adjacent-line prefetcher
// pulls the neighbor line along): side by side, two workers' moves would
// keep stealing one line from each other (DESIGN.md §9).
type shadowBucket struct {
	vs    []int32
	front int32
	_     [shadowBucketStride - 28]byte
}

const shadowBucketStride = 128

// NewShadow returns a shadow seeded from the index in O(|V|): its own
// copy of the assignment, the buckets (sized with move headroom) and the
// positions, synced to no mask yet. Whoever applies to ix every move the
// shadow keeps leaves the two in agreement without ever copying again
// (DESIGN.md §14).
func (ix *Index) NewShadow() *Shadow {
	s := &Shadow{
		p:       &Partitioning{K: ix.p.K, Assign: make([]int32, len(ix.pos))},
		master:  ix.p,
		buckets: make([]shadowBucket, len(ix.buckets)),
		pos:     make([]int32, len(ix.pos)),
	}
	s.Resync(ix)
	return s
}

// Resync re-seeds the shadow from ix — the index it was made from, after
// moves the shadow did not see — reusing every backing array: a pooled
// shadow starts its next call the way a new one would, synced to no mask.
func (s *Shadow) Resync(ix *Index) {
	copy(s.p.Assign, ix.p.Assign)
	copy(s.pos, ix.pos)
	for q, b := range ix.buckets {
		vs := s.buckets[q].vs
		if cap(vs) < len(b) {
			vs = make([]int32, 0, bucketCap(int32(len(b))))
		}
		s.buckets[q].vs, s.buckets[q].front = append(vs[:0], b...), 0
	}
	s.mask = nil
}

// Partitioning returns the shadow's own view of the decomposition.
func (s *Shadow) Partitioning() *Partitioning { return s.p }

// Master implements PairIndexer: the index's decomposition, which no
// worker writes during a wave — the wave-start view of every partition.
func (s *Shadow) Master() *Partitioning { return s.master }

// Sync makes mask the mask the prefixes follow. changed must list every
// vertex whose bit differs from what the shadow last saw of it — in any
// order, repeats and unchanged vertices allowed. A mask the shadow was not
// synced to before is taken whole instead, whatever changed says: the
// prefixes start over from its set bits. O(len(changed)), or O(K + |V|/64
// + set bits) on a change of mask.
func (s *Shadow) Sync(mask *Bitset, changed []int32) {
	if mask != s.mask {
		for q := range s.buckets {
			s.buckets[q].front = 0
		}
		s.mask = mask
		mask.Range(0, mask.Len(), s.resort)
		return
	}
	for _, v := range changed {
		s.resort(v)
	}
}

// resort moves v across its bucket's prefix boundary if it sits on the
// side its mask bit does not say.
func (s *Shadow) resort(v int32) {
	b := &s.buckets[s.p.Assign[v]]
	switch i, on := s.pos[v], s.mask.Get(v); {
	case on && i >= b.front:
		s.swap(b, i, b.front)
		b.front++
	case !on && i < b.front:
		b.front--
		s.swap(b, i, b.front)
	}
}

// swap exchanges the vertices at positions i and j of bucket b.
func (s *Shadow) swap(b *shadowBucket, i, j int32) {
	v, w := b.vs[i], b.vs[j]
	b.vs[i], b.vs[j] = w, v
	s.pos[v], s.pos[w] = j, i
}

// Move implements PairIndexer in O(1): v's slot is refilled from the end
// of its bucket and v appended to the other, each through the prefix
// boundary when v is masked — the last masked member takes v's slot and
// the last member that one's; on arrival the first unmasked member steps
// to the end and v takes its slot. Concurrent calls are safe iff they
// move vertices of disjoint partition pairs, which the tournament
// schedule guarantees within a wave.
func (s *Shadow) Move(v, to int32) {
	from := s.p.Assign[v]
	if from == to {
		return
	}
	b := &s.buckets[from]
	i, last := s.pos[v], int32(len(b.vs))-1
	masked := i < b.front
	if masked {
		b.front--
		w := b.vs[b.front]
		b.vs[i], s.pos[w] = w, i
		i = b.front
	}
	if i != last {
		w := b.vs[last]
		b.vs[i], s.pos[w] = w, i
	}
	b.vs = b.vs[:last]

	b = &s.buckets[to]
	i = int32(len(b.vs))
	b.vs = append(b.vs, v)
	if masked {
		w := b.vs[b.front]
		b.vs[i], s.pos[w] = w, i
		i = b.front
		b.vs[i] = v
		b.front++
	}
	s.pos[v] = i
	s.p.Assign[v] = to
}

// AppendPairUnsorted implements PairIndexer: the two masked prefixes. A
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

// Masked returns the members of partition q whose bit is set in the
// synced mask — its bucket's prefix, in bucket order — valid until the
// next Move or Sync.
func (s *Shadow) Masked(q int32) []int32 { return s.buckets[q].vs[:s.buckets[q].front] }

// Validate checks the shadow's invariants against a scan of its view:
// every bucket holds exactly its partition's vertices, each at pos[v],
// and — once synced — the mask-set ones are exactly its prefix. O(|V|);
// intended for tests.
func (s *Shadow) Validate() error {
	sizes := make([]int32, len(s.buckets))
	masked := make([]int32, len(s.buckets))
	for v, q := range s.p.Assign {
		b := &s.buckets[q]
		i := s.pos[v]
		if i < 0 || int(i) >= len(b.vs) || b.vs[i] != int32(v) {
			return fmt.Errorf("shadow: pos[%d] = %d is not where bucket %d holds it", v, i, q)
		}
		sizes[q]++
		on := s.mask != nil && s.mask.Get(int32(v))
		if on {
			masked[q]++
		}
		if on != (i < b.front) {
			return fmt.Errorf("shadow: vertex %d (mask bit %v) at %d of bucket %d, whose prefix is %d long", v, on, i, q, b.front)
		}
	}
	for q := range s.buckets {
		if b := &s.buckets[q]; int32(len(b.vs)) != sizes[q] || b.front != masked[q] {
			return fmt.Errorf("shadow: bucket %d has %d members and a prefix of %d, its partition %d members, %d of them masked",
				q, len(b.vs), b.front, sizes[q], masked[q])
		}
	}
	return nil
}

// ExternalDegreesSparse is the sparse-reset form of ExternalDegreesInto:
// buf (length >= K) must be all-zero on entry; d_ext(v, ·) is accumulated
// into it and the distinct partitions touched are appended to tlist,
// ascending, and returned. mask is a caller-owned bitmap of at least
// ⌈K/64⌉ words, all-zero on entry and restored to all-zero on return — it
// is how the touched set comes out sorted without a per-call sort, which
// profiles as the dominant cost of gain evaluation otherwise. The caller
// reads buf at the returned indices and must re-zero exactly those
// entries before the next call. One gain evaluation over the result is
// O(deg(v) + K/64 + t) with t <= min(deg, K), instead of the
// O(deg(v) + K) of a dense zero-and-refill.
func ExternalDegreesSparse(g *graph.Graph, p *Partitioning, v int32, buf []int64, mask []uint64, tlist []int32) []int32 {
	adj := g.Neighbors(v)
	w := g.EdgeWeights(v)
	w = w[:len(adj)]
	for i, u := range adj {
		pu := p.Assign[u]
		buf[pu] += int64(w[i])
		mask[pu>>6] |= 1 << (pu & 63)
	}
	return drainMask(mask, tlist)
}

// drainMask appends the set bits of mask to tlist in ascending order and
// clears them — the sort-free path that keeps gain summation in
// ascending partition order.
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

// MaskWords returns the bitmap length covering k ids: what
// ExternalDegreesSparse needs for k partitions, SortCandidates for k
// vertices and, one level up, for that many words.
func MaskWords(k int32) int { return (int(k) + 63) / 64 }
