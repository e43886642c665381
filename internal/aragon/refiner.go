package aragon

import (
	"paragon/internal/graph"
	"paragon/internal/partition"
)

// Refiner bundles the reusable scratch state of the pairwise FM hot path:
// the dense candidate slot array, the per-candidate gain state, the gain
// heap and the candidate-ordering bitmap. Construct one per refinement
// sweep (per worker in PARAGON) and call RefinePair for every pair of the
// sweep — candidate enumeration comes from the supplied
// partition.PairIndexer instead of a full-graph scan, and all per-pair
// allocations are amortized across the k(k−1)/2 pair loop.
//
// The refiner produces bit-identical results to the historical scan-based
// implementation: candidates are ordered ascending and the heap receives
// pushes in the same sequence, so tie-breaking is unchanged.
//
// Gains are int64 on the objective grid (DESIGN.md §10), kept in delta
// mode for every cost matrix. While a pair (Pi, Pj) is refined only its
// own vertices move, and only between Pi and Pj, so of an unmoved
// candidate's Eq. 5 terms the migration term g_mig and the topology term
// g_topo = α·Σ_{k∉{i,j}} d_ext(v,Pk)·(c[i][k]−c[j][k]) are constants; only
// the two integers d_ext(v,Pi), d_ext(v,Pj) change. Each candidate is
// therefore seeded once — from its wave-start profile segment under the
// scheduler, from one adjacency scan otherwise — and every re-evaluation
// after an incident move is an O(1) update of the two integer
// accumulators, exactly what a rescan would give. That removes the
// repeated adjacency walks that dominate refinement on power-law graphs
// (hub candidates are re-evaluated once per neighboring move).
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

	g     *graph.Graph
	p     *partition.Partitioning
	ix    partition.PairIndexer
	alpha int64 // Config.Alpha on the objective grid

	slot    []int32 // vertex -> candidate slot + 1; 0 = not in current pair
	cands   []int32
	order   []uint64 // ⌈|V|/64⌉-word candidate-ordering bitmap, all-zero between uses
	osum    []uint64 // its summary, one bit per word of order, all-zero between uses
	h       partition.GainHeap
	history []moveRec

	// Per-candidate state, grown together (grow): own/org are the
	// candidate's owner at seed time (where it stays until it moves) and its
	// original owner, off its profile header offset; dfrom/dto its edge
	// weight toward its own/the other partition of the pair; gtopo and gmig
	// its Eq. 8 and Eq. 9 terms, constant while the pair is refined; gains
	// the current Eq. 5 value.
	gains []int64
	moved []bool
	own   []int32
	org   []int32
	off   []int32
	dfrom []int64
	dto   []int64
	gtopo []int64
	gmig  []int64

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

	// The Eq. 8 factors of the running pair (beginPair; general matrix
	// only): dfwd[q] = c[pi][q] − c[pj][q] for a candidate leaving pi,
	// drev[q] = c[pj][q] − c[pi][q] for one leaving pj, 0 at pi and pj.
	dfwd, drev []int64

	// The quantisation of the last matrix RefinePair was given, keyed by
	// its first row. Cost matrices are treated as immutable.
	cRow0 *[]float64
	costs *partition.Costs

	_ [cacheLinePad]byte
}

// cacheLinePad separates two workers' hot state: the 64-byte line plus the
// neighbor the adjacent-line prefetcher of current x86 parts pulls with it.
const cacheLinePad = 128

// scratchWords returns an all-zero n-word scratch whose backing array
// fills whole cache lines, so it shares none with the next allocation.
func scratchWords[T int64 | uint64](n int) []T {
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
		alpha: partition.Alpha(cfg.WithDefaults().Alpha),
		slot:  make([]int32, g.NumVertices()),
		order: scratchWords[uint64](orderWords),
		osum:  scratchWords[uint64](partition.MaskWords(int32(orderWords))),
		dfwd:  scratchWords[int64](int(k)),
		drev:  scratchWords[int64](int(k)),
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

// RefinePairScheduled is RefinePair on a quantised matrix plus a record of
// the kept moves: the best-prefix relocations that survived rollback,
// appended to dst in execution order. The scheduler applies them to the
// authoritative index at commit time; the refiner itself has already
// applied them to its own shadow view.
func (r *Refiner) RefinePairScheduled(dst []Move, orig []int32, pi, pj int32, cs *partition.Costs, loads []int64, maxLoad int64, allowed *partition.Bitset) ([]Move, Result) {
	res := r.refinePair(orig, pi, pj, cs, loads, maxLoad, allowed)
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
// c is quantised on first sight (partition.CheckCosts) and must pass it.
func (r *Refiner) RefinePair(orig []int32, pi, pj int32, c [][]float64, loads []int64, maxLoad int64, allowed *partition.Bitset) Result {
	if r.costs == nil || &c[0] != r.cRow0 {
		cs, err := partition.CheckCosts(c, r.p.K)
		if err != nil {
			panic("aragon: " + err.Error())
		}
		r.cRow0, r.costs = &c[0], cs
	}
	return r.refinePair(orig, pi, pj, r.costs, loads, maxLoad, allowed)
}

func (r *Refiner) refinePair(orig []int32, pi, pj int32, cs *partition.Costs, loads []int64, maxLoad int64, allowed *partition.Bitset) Result {
	if pi == pj {
		return Result{}
	}
	r.beginPair(pi, pj, cs)
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
	r.seed(pi, pj, orig, cs)
	r.h.Reset()
	r.h.PushAll(r.gains)

	r.history = r.history[:0]
	var prefix, best int64
	bestLen := 0
	bad := 0

	for r.h.Len() > 0 && bad < badMoveLimit {
		idx, gv, ok := r.h.PopValid(r.gains, r.moved)
		if !ok {
			break
		}
		v := r.cands[idx]
		from, to, _ := r.orient(int(idx), pi, pj)
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
			// u is unmoved, so it is still where it was seeded and its
			// orientation (fromU → toU) is unchanged; v carried weight w
			// toward `from`, now toward `to`.
			fromU, toU, _ := r.orient(ui, pi, pj)
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
			r.gains[ui] = r.pairGain(ui, cs.At(fromU, toU))
			r.h.Push(s-1, r.gains[ui])
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

// beginPair readies what seeding the candidates of (pi, pj) under cs
// reads: for a general matrix, the pair's two difference rows.
func (r *Refiner) beginPair(pi, pj int32, cs *partition.Costs) {
	if cs.Uniform {
		return
	}
	ci, cj := cs.Row(pi), cs.Row(pj)
	for q := range r.dfwd {
		r.dfwd[q] = ci[q] - cj[q]
		r.drev[q] = -r.dfwd[q]
	}
	r.dfwd[pi], r.dfwd[pj], r.drev[pi], r.drev[pj] = 0, 0, 0, 0
}

// grow sizes the per-candidate slices for n candidates and clears moved.
// A pair larger than any before reallocates all of them once, with
// headroom, so a run of slowly growing pairs does not reallocate per pair.
func (r *Refiner) grow(n int) {
	c := n + n/8 + 8
	r.gains, r.moved = sized(r.gains, n, c), sized(r.moved, n, c)
	r.own, r.org, r.off = sized(r.own, n, c), sized(r.org, n, c), sized(r.off, n, c)
	r.dfrom, r.dto = sized(r.dfrom, n, c), sized(r.dto, n, c)
	r.gtopo, r.gmig = sized(r.gtopo, n, c), sized(r.gmig, n, c)
	clear(r.moved)
}

// sized returns s resliced to length n, reallocated with capacity c when
// it holds fewer than n.
func sized[T any](s []T, n, c int) []T {
	if cap(s) < n {
		return make([]T, n, c)
	}
	return s[:n]
}

// seed initializes every candidate's gain state and gain. A first pass
// gathers each candidate's owner, original owner and (with a profile)
// segment offset: independent id-indexed loads in a loop short enough for
// the core to keep many in flight. Then one loop per path walks the
// segments or adjacency lists and forms each candidate's Eq. 5 terms and
// gain as soon as its walk ends, from the registers the walk left. Under
// a uniform cost matrix only the pair-local degrees are needed (g_topo is
// identically zero), and a profile walk stops at the pair's higher
// partition, since segments are sorted; under a general one every
// partition v touches adds its weight times the pair's difference row
// (beginPair), 0 at `from` and `to`, so no walk branches on the partition
// for the sum.
func (r *Refiner) seed(pi, pj int32, orig []int32, cs *partition.Costs) {
	// Seeds precede the pair's first move, so both views agree on a
	// candidate's owner: a scan reads it where it reads the neighbors', a
	// profile seed where moves keep it hot.
	np, assign := r.profile, r.p.Assign
	if np == nil {
		assign = r.master.Assign
	}
	for i, v := range r.cands {
		r.own[i], r.org[i] = assign[v], orig[v]
	}
	if np != nil {
		for i, v := range r.cands {
			r.off[i] = np.Offset(v)
		}
	}
	switch {
	case np != nil && cs.Uniform:
		for idx, off := range r.off {
			from, to, _ := r.orient(idx, pi, pj)
			parts, ws, size := np.SegmentAt(off)
			last := max(from, to)
			var dfrom, dto int64
			for i, k := range parts {
				if k == from {
					dfrom = ws[i]
				} else if k == to {
					dto = ws[i]
				}
				if k >= last {
					break
				}
			}
			k0 := r.org[idx]
			gmig := (size * (cs.At(from, k0) - cs.At(to, k0))) << partition.AlphaBits
			r.dfrom[idx], r.dto[idx], r.gtopo[idx], r.gmig[idx] = dfrom, dto, 0, gmig
			r.gains[idx] = r.alpha*(dto-dfrom)*cs.At(from, to) + gmig
		}
	case cs.Uniform:
		for idx, v := range r.cands {
			from, to, _ := r.orient(idx, pi, pj)
			adj := r.g.Neighbors(v)
			w := r.g.EdgeWeights(v)
			w = w[:len(adj)]
			var dfrom, dto int64
			for i, u := range adj {
				switch assign[u] {
				case from:
					dfrom += int64(w[i])
				case to:
					dto += int64(w[i])
				}
			}
			k0 := r.org[idx]
			gmig := (int64(r.g.VertexSize(v)) * (cs.At(from, k0) - cs.At(to, k0))) << partition.AlphaBits
			r.dfrom[idx], r.dto[idx], r.gtopo[idx], r.gmig[idx] = dfrom, dto, 0, gmig
			r.gains[idx] = r.alpha*(dto-dfrom)*cs.At(from, to) + gmig
		}
	case np != nil:
		for idx, off := range r.off {
			from, to, d := r.orient(idx, pi, pj)
			parts, ws, size := np.SegmentAt(off)
			ws = ws[:len(parts)]
			var dfrom, dto, gtopo int64
			for i, k := range parts {
				w := ws[i]
				gtopo += w * d[k]
				if k == from {
					dfrom = w
				}
				if k == to {
					dto = w
				}
			}
			k0 := r.org[idx]
			gtopo *= r.alpha
			gmig := (size * (cs.At(from, k0) - cs.At(to, k0))) << partition.AlphaBits
			r.dfrom[idx], r.dto[idx], r.gtopo[idx], r.gmig[idx] = dfrom, dto, gtopo, gmig
			r.gains[idx] = r.alpha*(dto-dfrom)*cs.At(from, to) + gtopo + gmig
		}
	default:
		for idx, v := range r.cands {
			from, to, d := r.orient(idx, pi, pj)
			adj := r.g.Neighbors(v)
			w := r.g.EdgeWeights(v)
			w = w[:len(adj)]
			var dfrom, dto, gtopo int64
			for i, u := range adj {
				k, wi := assign[u], int64(w[i])
				gtopo += wi * d[k]
				if k == from {
					dfrom += wi
				}
				if k == to {
					dto += wi
				}
			}
			k0 := r.org[idx]
			gtopo *= r.alpha
			gmig := (int64(r.g.VertexSize(v)) * (cs.At(from, k0) - cs.At(to, k0))) << partition.AlphaBits
			r.dfrom[idx], r.dto[idx], r.gtopo[idx], r.gmig[idx] = dfrom, dto, gtopo, gmig
			r.gains[idx] = r.alpha*(dto-dfrom)*cs.At(from, to) + gtopo + gmig
		}
	}
}

// orient returns candidate idx's side of the pair: the partition it
// leaves, the one it would enter, and the Eq. 8 difference row of that
// direction (beginPair).
func (r *Refiner) orient(idx int, pi, pj int32) (from, to int32, d []int64) {
	if from = r.own[idx]; from == pi {
		return pi, pj, r.dfwd
	}
	return from, pi, r.drev
}

// pairGain is Eq. 5 from candidate idx's maintained state: Eq. 6 from the
// two pair-local degrees and c(from, to), plus the constant Eq. 8 and
// Eq. 9 terms.
func (r *Refiner) pairGain(idx int, cft int64) int64 {
	return r.alpha*(r.dto[idx]-r.dfrom[idx])*cft + r.gtopo[idx] + r.gmig[idx]
}
