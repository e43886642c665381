package aragon

import (
	"paragon/internal/graph"
	"paragon/internal/partition"
)

// Refiner bundles the reusable scratch state of the pairwise FM hot path:
// the dense candidate slot array, the per-candidate gain state, the gain
// heap, the candidate-ordering bitmap and the sparse external-degree
// buffer. Construct one per refinement sweep (per worker in PARAGON) and
// call RefinePair for every pair of the sweep — candidate enumeration
// comes from the supplied partition.PairIndexer instead of a full-graph
// scan, and all per-pair allocations are amortized across the k(k−1)/2
// pair loop.
//
// The refiner produces bit-identical results to the historical scan-based
// implementation: candidates are ordered ascending, gains are accumulated
// over partitions in ascending order, and the heap receives pushes in the
// same sequence, so tie-breaking is unchanged.
//
// Gains are kept in delta mode for every cost matrix. While a pair
// (Pi, Pj) is refined only its own vertices move, and only between Pi and
// Pj, so of an unmoved candidate's Eq. 5 terms the migration term g_mig
// and the topology term g_topo = α·Σ_{k∉{i,j}} d_ext(v,Pk)·(c[i][k]−c[j][k])
// are constants; only the two integers d_ext(v,Pi), d_ext(v,Pj) change.
// Each candidate is therefore seeded once — from its wave-start profile
// segment under the scheduler, from one adjacency scan otherwise — and
// every re-evaluation after an incident move is an O(1) update of the two
// integer accumulators. Because the float gain is recomputed from the
// same integer state and the same constants a rescan would produce, the
// result is bit-identical to rescanning — it only removes the repeated
// adjacency walks that dominate refinement on power-law graphs (hub
// candidates are re-evaluated once per neighboring move).
//
// PARAGON builds one refiner per worker back to back, so the allocator
// lays them (and their small scratch) out adjacently. The slice headers
// below are rewritten on every heap push, pop and move; the pads and the
// line-rounded scratch (scratchWords) keep one worker's writes off the
// cache lines another worker reads. Without them whether two workers
// shared a line depended on the heap layout of the call, and the same
// Refine ran 25 % slower whenever they did.
type Refiner struct {
	_ [cacheLinePad]byte

	g   *graph.Graph
	p   *partition.Partitioning
	ix  partition.PairIndexer
	cfg Config

	slot    []int32 // vertex -> candidate slot + 1; 0 = not in current pair
	cands   []int32
	order   []uint64 // ⌈|V|/64⌉-word candidate-ordering bitmap, all-zero between uses
	osum    []uint64 // its summary, one bit per word of order, all-zero between uses
	h       floatHeap
	dext    []int64  // sparse K-length external-degree scratch, all-zero between uses
	dmask   []uint64 // ⌈K/64⌉-word touched-partition bitmap, all-zero between uses
	touched []int32  // partitions touched by the last dext fill
	history []moveRec

	// Per-candidate state, grown together (grow): dfrom/dto are the
	// candidate's edge weight toward its own/the other partition of the
	// pair; gtopo and gmig its Eq. 8 and Eq. 9 terms, constant while the
	// pair is refined; gains the current Eq. 5 value.
	gains []float64
	moved []bool
	dfrom []int64
	dto   []int64
	gtopo []float64
	gmig  []float64

	// profile, when non-nil, is the scheduler's wave-start
	// neighbor-partition weight table. Seeding runs before any of the
	// pair's moves and concurrent pairs move vertices of other partitions
	// only, so v's segment is exactly what an adjacency scan reading
	// foreign neighbors at their wave-start owner would sum. The scheduler
	// patches the table at wave barriers only.
	profile *partition.NeighborProfile
	// master is ix.Master(), the assignment seeds read: p's own on an Index,
	// the wave-constant master under a Shadow (DESIGN.md §9).
	master *partition.Partitioning

	// The Eq. 8 factors of the running pair (beginPair; general matrix with
	// a profile only): dfwd[q] = c[pi][q] − c[pj][q] for a candidate leaving
	// pi, drev[q] = c[pj][q] − c[pi][q] for one leaving pj, +0.0 at pi, pj.
	dfwd, drev []float64

	// Cached off-diagonal-uniformity of the last cost matrix seen (keyed
	// by its first row). Cost matrices are treated as immutable.
	cRow0    *[]float64
	cUniform bool

	_ [cacheLinePad]byte
}

// cacheLinePad separates two workers' hot state: the 64-byte line plus the
// neighbor the adjacent-line prefetcher of current x86 parts pulls with it.
const cacheLinePad = 128

// scratchWords returns an all-zero n-word scratch whose backing array
// fills whole cache lines, so it shares none with the next allocation.
func scratchWords[T int64 | uint64 | float64](n int) []T {
	return make([]T, n, (n+7)&^7)
}

// testMoveApplied, consulted only when non-nil (set by the differential
// oracle test, never concurrently with a running RefinePair), fires after
// every applied move once the neighbors' gain state absorbed it.
var testMoveApplied func(r *Refiner, pi, pj int32)

type moveRec struct {
	v        int32
	from, to int32
}

// NewRefiner builds a refiner over ix. The indexer owns the partitioning:
// every move flows through ix.Move so the index invariants hold across
// pairs (and across the rollback of non-improving suffixes).
func NewRefiner(g *graph.Graph, ix partition.PairIndexer, cfg Config) *Refiner {
	k := ix.Partitioning().K
	orderWords := partition.MaskWords(g.NumVertices())
	r := &Refiner{
		g:     g,
		cfg:   cfg.WithDefaults(),
		slot:  make([]int32, g.NumVertices()),
		order: scratchWords[uint64](orderWords),
		osum:  scratchWords[uint64](partition.MaskWords(int32(orderWords))),
		h:     newFloatHeap(64),
		dext:  scratchWords[int64](int(k)),
		dmask: scratchWords[uint64](partition.MaskWords(k)),
		dfwd:  scratchWords[float64](int(k)),
		drev:  scratchWords[float64](int(k)),
	}
	r.Bind(ix)
	return r
}

// Bind points the refiner at another indexer over the same graph and
// partition count: its scratch is sized by those two and clean between
// pairs (a wave engine binds every refiner it runs, lent ones included).
func (r *Refiner) Bind(ix partition.PairIndexer) {
	r.ix, r.p, r.master = ix, ix.Partitioning(), ix.Master()
}

// SetProfile installs (or clears, with nil) the neighbor-partition
// weight table candidates are seeded from. The caller owns keeping it
// equal to the assignment the refiner sees at the start of every pair;
// with a nil profile each candidate is seeded from one scan over ix.Master().
func (r *Refiner) SetProfile(np *partition.NeighborProfile) {
	r.profile = np
}

// Move is one committed vertex relocation, recorded by
// RefinePairScheduled so the parallel scheduler can replay the kept
// prefix against the master partitioning in deterministic task order.
type Move struct {
	V, To int32
}

// RefinePairScheduled is RefinePair plus a record of the kept moves: the
// best-prefix relocations that survived rollback, appended to dst in
// execution order. The scheduler applies them to the authoritative index
// at commit time; the refiner itself has already applied them to its own
// shadow view.
func (r *Refiner) RefinePairScheduled(dst []Move, orig []int32, pi, pj int32, c [][]float64, loads []int64, maxLoad int64, allowed *partition.Bitset) ([]Move, Result) {
	res := r.RefinePair(orig, pi, pj, c, loads, maxLoad, allowed)
	for _, m := range r.history[:res.Moves] {
		dst = append(dst, Move{V: m.v, To: m.to})
	}
	return dst, res
}

// RefinePair refines the pair (pi, pj) in place — the FM hill climb with
// rollback, candidates enumerated from the index — and returns the
// number of moves kept and the gain realized. orig is the decomposition
// before any refinement (migration reference), loads the live
// per-partition weights (updated in place, rollback included). Only
// vertices with a set bit in allowed may move: PARAGON uses the mask to
// model the k-hop boundary shipping of §5 — a group server only holds the
// vertices its group members shipped. The mask is the indexer's kind
// (partition.PairIndexer): nil on an Index, which admits every boundary
// vertex of the pair (full ARAGON behavior), the synced one on a Shadow.
func (r *Refiner) RefinePair(orig []int32, pi, pj int32, c [][]float64, loads []int64, maxLoad int64, allowed *partition.Bitset) Result {
	if pi == pj {
		return Result{}
	}
	r.beginPair(pi, pj, c)
	r.cands = r.ix.AppendPairUnsorted(r.cands[:0], pi, pj, allowed)
	partition.SortCandidates(r.cands, r.order, r.osum)
	n := len(r.cands)
	if n == 0 {
		return Result{PairsSeen: 1}
	}
	for idx, v := range r.cands {
		r.slot[v] = int32(idx) + 1
	}
	r.grow(n)
	r.h.reset()
	for idx := 0; idx < n; idx++ {
		r.seed(idx, pi, pj, orig, c)
		r.h.push(int32(idx), r.gains[idx])
	}

	r.history = r.history[:0]
	var prefix, best float64
	bestLen := 0
	bad := 0

	for r.h.len() > 0 && bad < r.cfg.BadMoveLimit {
		idx, gv, ok := r.h.popValid(r.gains, r.moved)
		if !ok {
			break
		}
		v := r.cands[idx]
		from := r.p.Assign[v]
		to := pi
		if from == pi {
			to = pj
		}
		if loads[to]+int64(r.g.VertexWeight(v)) > maxLoad {
			r.moved[idx] = true // inadmissible for this pass
			continue
		}
		r.ix.Move(v, to)
		loads[from] -= int64(r.g.VertexWeight(v))
		loads[to] += int64(r.g.VertexWeight(v))
		r.moved[idx] = true
		r.history = append(r.history, moveRec{v, from, to})
		prefix += gv
		if prefix > best {
			best = prefix
			bestLen = len(r.history)
			bad = 0
		} else {
			bad++
		}
		// Re-evaluate unmoved candidate neighbors of v: of their gain
		// state only d_ext toward pi/pj changed, by the connecting edge
		// weight — O(1) per neighbor.
		adj := r.g.Neighbors(v)
		w := r.g.EdgeWeights(v)
		w = w[:len(adj)]
		for i, u := range adj {
			s := r.slot[u]
			if s == 0 || r.moved[s-1] {
				continue
			}
			ui := int(s - 1)
			// u is unmoved, so its orientation (fromU → toU) is
			// unchanged; v carried weight w toward `from`, now
			// toward `to`.
			fromU := r.p.Assign[u]
			if from == fromU {
				r.dfrom[ui] -= int64(w[i])
			} else {
				r.dto[ui] -= int64(w[i])
			}
			if to == fromU {
				r.dfrom[ui] += int64(w[i])
			} else {
				r.dto[ui] += int64(w[i])
			}
			toU := pi
			if fromU == pi {
				toU = pj
			}
			r.gains[ui] = r.pairGain(ui, fromU, toU, c)
			r.h.push(s-1, r.gains[ui])
		}
		if testMoveApplied != nil {
			testMoveApplied(r, pi, pj)
		}
	}
	// Roll back past the best prefix (through the index, so its
	// invariants survive into the next pair).
	for i := len(r.history) - 1; i >= bestLen; i-- {
		m := r.history[i]
		r.ix.Move(m.v, m.from)
		loads[m.to] -= int64(r.g.VertexWeight(m.v))
		loads[m.from] += int64(r.g.VertexWeight(m.v))
	}
	for _, v := range r.cands {
		r.slot[v] = 0
	}
	return Result{Moves: bestLen, Gain: best, PairsSeen: 1}
}

// beginPair readies what seeding the candidates of (pi, pj) under c reads:
// the cached uniformity of c and, for the general-matrix profile walk, the
// pair's two difference rows.
func (r *Refiner) beginPair(pi, pj int32, c [][]float64) {
	if len(c) > 0 && &c[0] != r.cRow0 {
		r.cRow0 = &c[0]
		r.cUniform = uniformOffDiag(c)
	}
	if r.cUniform || r.profile == nil {
		return
	}
	ci, cj := c[pi], c[pj]
	for q := range r.dfwd {
		r.dfwd[q] = ci[q] - cj[q]
		r.drev[q] = cj[q] - ci[q]
	}
	r.dfwd[pi], r.dfwd[pj], r.drev[pi], r.drev[pj] = 0, 0, 0, 0
}

// grow sizes the per-candidate slices for n candidates and clears moved.
// A pair larger than any before reallocates all of them once, with
// headroom, so a run of slowly growing pairs does not reallocate per pair.
func (r *Refiner) grow(n int) {
	if cap(r.gains) < n {
		c := n + n/8 + 8
		r.gains = make([]float64, c)
		r.moved = make([]bool, c)
		r.dfrom = make([]int64, c)
		r.dto = make([]int64, c)
		r.gtopo = make([]float64, c)
		r.gmig = make([]float64, c)
	}
	r.gains = r.gains[:n]
	r.moved = r.moved[:n]
	r.dfrom = r.dfrom[:n]
	r.dto = r.dto[:n]
	r.gtopo = r.gtopo[:n]
	r.gmig = r.gmig[:n]
	clear(r.moved)
}

// seed initializes candidate idx's gain state and its gain. Under a
// uniform cost matrix only the pair-local degrees are needed (g_topo is
// identically zero): two profile lookups, or a two-accumulator adjacency
// pass. Under a general matrix every partition v touches contributes to
// g_topo: one walk of v's profile segment, or one sparse external-degree
// scan. Either source lists the same (partition, weight) entries in
// ascending partition order — the dense evaluation's summation order — so
// the two loops form the same float sum term for term.
//
// The profile walk has no branch on the partition: it adds every entry's
// product with the pair's difference row (beginPair), +0.0 at `from` and
// `to` — the sum that skips those two entries, bit for bit, because a
// running sum that starts at +0.0 is never −0.0 and x + (+0.0) = x for
// every other x (DESIGN.md §9). The segment header carries v's data size.
// Every product that feeds an addition is converted to float64 first, so
// that no compiler fuses the two roundings into one (DESIGN.md §10).
func (r *Refiner) seed(idx int, pi, pj int32, orig []int32, c [][]float64) {
	v := r.cands[idx]
	// Seeds precede the pair's first move, so both views agree on v's owner:
	// a scan reads it where it reads the neighbors', a profile seed where moves keep it hot.
	assign := r.p.Assign
	if r.profile == nil {
		assign = r.master.Assign
	}
	from, k0 := assign[v], orig[v]
	to, d := pi, r.drev
	if from == pi {
		to, d = pj, r.dfwd
	}
	var dfrom, dto, size int64
	gtopo := 0.0
	switch {
	case r.cUniform && r.profile != nil:
		dfrom, dto = r.profile.GetPair(v, from, to)
		size = int64(r.g.VertexSize(v))
	case r.cUniform:
		adj := r.g.Neighbors(v)
		w := r.g.EdgeWeights(v)
		w = w[:len(adj)]
		for i, u := range adj {
			switch assign[u] {
			case from:
				dfrom += int64(w[i])
			case to:
				dto += int64(w[i])
			}
		}
		size = int64(r.g.VertexSize(v))
	case r.profile != nil:
		parts, ws, hdr := r.profile.Segment(v)
		ws, size = ws[:len(parts)], hdr
		for i, k := range parts {
			w := ws[i]
			gtopo += float64(float64(w) * d[k])
			if k == from {
				dfrom = w
			}
			if k == to {
				dto = w
			}
		}
		gtopo *= r.cfg.Alpha
	default:
		r.touched = partition.ExternalDegreesSparse(r.g, r.master, v, r.dext, r.dmask, r.touched[:0])
		cf, ct := c[from], c[to]
		for _, k := range r.touched {
			d := r.dext[k]
			r.dext[k] = 0 // sparse reset: only the touched entries
			switch k {
			case from:
				dfrom = d
			case to:
				dto = d
			default:
				gtopo += float64(float64(d) * (cf[k] - ct[k]))
			}
		}
		gtopo *= r.cfg.Alpha
		size = int64(r.g.VertexSize(v))
	}
	r.dfrom[idx] = dfrom
	r.dto[idx] = dto
	r.gtopo[idx] = gtopo
	r.gmig[idx] = float64(size) * (c[from][k0] - c[to][k0])
	r.gains[idx] = r.pairGain(idx, from, to, c)
}

// pairGain is Eq. 5 from candidate idx's maintained state: Eq. 6 from the
// two pair-local degrees plus the constant Eq. 8 and Eq. 9 terms. The
// expression tree matches the dense evaluation's (gStd+gTopo)+gMig term
// for term, so a delta re-evaluation is bit-identical to a full
// recompute. Under a uniform matrix gtopo is the literal +0.0: every
// Eq. 8 factor c[from][k]−c[to][k] is exactly zero for k ∉ {from, to}.
func (r *Refiner) pairGain(idx int, from, to int32, c [][]float64) float64 {
	gStd := float64(r.cfg.Alpha * float64(r.dto[idx]-r.dfrom[idx]) * c[from][to])
	return gStd + r.gtopo[idx] + r.gmig[idx]
}

// uniformOffDiag reports whether every off-diagonal entry of c is equal —
// the uniform-cost topologies of standard FM refinement.
func uniformOffDiag(c [][]float64) bool {
	if len(c) < 2 {
		return true
	}
	u := c[0][1]
	for i := range c {
		for j := range c[i] {
			if i != j && c[i][j] != u {
				return false
			}
		}
	}
	return true
}
