package aragon

import (
	"paragon/internal/graph"
	"paragon/internal/partition"
)

// Refiner bundles the reusable scratch state of the pairwise FM hot path:
// the dense candidate slot array, the gain/moved slices, the gain heap,
// and the sparse external-degree buffer. Construct one per refinement
// sweep (per group server in PARAGON) and call RefinePair for every pair
// of the sweep — candidate enumeration comes from the supplied
// partition.PairIndexer instead of a full-graph scan, and all per-pair
// allocations are amortized across the k(k−1)/2 pair loop.
//
// The refiner produces bit-identical results to the historical scan-based
// implementation: candidates arrive in ascending vertex order, gains are
// accumulated over partitions in ascending order, and the heap receives
// pushes in the same sequence, so tie-breaking is unchanged.
//
// Under a uniform off-diagonal cost matrix (standard FM) the refiner
// runs in delta mode: each candidate's gain is a pure function of two
// integer accumulators (its edge weight toward each side of the pair),
// which are kept current with O(1) updates per incident committed move
// instead of an O(deg) adjacency rescan per update. Because the float
// gain is recomputed from the same integer state the rescan would
// produce, delta mode is bit-identical to rescan mode — it only removes
// the repeated adjacency walks that dominate refinement on power-law
// graphs (hub candidates are re-evaluated once per neighboring move).
type Refiner struct {
	g   *graph.Graph
	p   *partition.Partitioning
	ix  partition.PairIndexer
	cfg Config

	slot    []int32 // vertex -> candidate slot + 1; 0 = not in current pair
	cands   []int32
	gains   []float64
	moved   []bool
	h       *floatHeap
	dext    []int64  // sparse K-length external-degree scratch, all-zero between uses
	dmask   []uint64 // ⌈K/64⌉-word touched-partition bitmap, all-zero between uses
	touched []int32  // partitions touched by the last dext fill
	history []moveRec

	// Delta-mode per-candidate state (uniform cost matrices only):
	// dfrom/dto are the candidate's edge weight toward its own/the other
	// partition of the pair, gmig its constant Eq. 9 migration term.
	dfrom []int64
	dto   []int64
	gmig  []float64

	// frozen, when non-nil, is a wave-constant view of the assignment used
	// for reading neighbors that do not belong to the current pair. The
	// scheduler updates it only at wave barriers, so every pair's gain
	// computation is independent of concurrently executing pairs.
	frozen []int32

	// profile, when non-nil alongside frozen, is the scheduler's
	// wave-start neighbor-partition weight table: delta-mode seeding
	// reads each candidate's pair-local degrees from two O(log t)
	// lookups instead of an O(deg) adjacency scan. The scheduler keeps
	// it in lockstep with frozen at wave barriers.
	profile *partition.NeighborProfile

	// Cached off-diagonal-uniformity of the last cost matrix seen (keyed
	// by its first row). Cost matrices are treated as immutable.
	cRow0    *[]float64
	cUniform bool
}

type moveRec struct {
	v        int32
	from, to int32
}

// NewRefiner builds a refiner over ix. The indexer owns the partitioning:
// every move flows through ix.Move so the index invariants hold across
// pairs (and across the rollback of non-improving suffixes).
func NewRefiner(g *graph.Graph, ix partition.PairIndexer, cfg Config) *Refiner {
	p := ix.Partitioning()
	return &Refiner{
		g:     g,
		p:     p,
		ix:    ix,
		cfg:   cfg.WithDefaults(),
		slot:  make([]int32, g.NumVertices()),
		h:     newFloatHeap(64),
		dext:  make([]int64, p.K),
		dmask: make([]uint64, partition.MaskWords(p.K)),
	}
}

// SetFrozen installs (or clears, with nil) the wave-constant assignment
// view consulted for neighbors outside the pair being refined. With a nil
// frozen view the refiner reads every neighbor live — the serial ARAGON
// semantics.
func (r *Refiner) SetFrozen(frozen []int32) {
	r.frozen = frozen
}

// SetProfile installs (or clears) the wave-start neighbor-partition
// weight table used to seed delta-mode gains under the frozen view. The
// caller owns keeping it consistent with the frozen assignment.
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
// vertices its group members shipped. A nil mask admits every boundary
// vertex of the pair (full ARAGON behavior).
func (r *Refiner) RefinePair(orig []int32, pi, pj int32, c [][]float64, loads []int64, maxLoad int64, allowed *partition.Bitset) Result {
	if pi == pj {
		return Result{}
	}
	if len(c) > 0 && &c[0] != r.cRow0 {
		r.cRow0 = &c[0]
		r.cUniform = uniformOffDiag(c)
	}
	r.cands = r.ix.AppendPairCandidates(r.cands[:0], pi, pj, allowed)
	n := len(r.cands)
	if n == 0 {
		return Result{PairsSeen: 1}
	}
	for idx, v := range r.cands {
		r.slot[v] = int32(idx) + 1
	}
	if cap(r.gains) < n {
		r.gains = make([]float64, n)
		r.moved = make([]bool, n)
		r.dfrom = make([]int64, n)
		r.dto = make([]int64, n)
		r.gmig = make([]float64, n)
	} else {
		r.gains = r.gains[:n]
		r.moved = r.moved[:n]
		r.dfrom = r.dfrom[:n]
		r.dto = r.dto[:n]
		r.gmig = r.gmig[:n]
		for i := range r.moved {
			r.moved[i] = false
		}
	}
	r.h.reset()
	delta := r.cUniform
	recompute := func(idx int) {
		v := r.cands[idx]
		from := r.p.Assign[v]
		to := pi
		if from == pi {
			to = pj
		}
		r.gains[idx] = r.gain(v, from, to, orig, c)
	}
	if delta {
		for idx := 0; idx < n; idx++ {
			r.seedUniform(idx, pi, pj, orig, c)
			r.h.push(int32(idx), r.gains[idx])
		}
	} else {
		for idx := 0; idx < n; idx++ {
			recompute(idx)
			r.h.push(int32(idx), r.gains[idx])
		}
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
		// Re-evaluate unmoved candidate neighbors of v: their d_ext
		// toward pi/pj changed. In delta mode the two integer
		// accumulators shift by the connecting edge weight — O(1) per
		// neighbor; otherwise the gain is recomputed from an O(deg)
		// adjacency rescan. Both orders of evaluation are identical:
		// the gain value is the same function of the same state.
		adj := r.g.Neighbors(v)
		if delta {
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
				r.gains[ui] = r.uniformGain(ui, fromU, toU, c)
				r.h.push(s-1, r.gains[ui])
			}
		} else {
			for _, u := range adj {
				if s := r.slot[u]; s != 0 && !r.moved[s-1] {
					recompute(int(s - 1))
					r.h.push(s-1, r.gains[s-1])
				}
			}
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

// seedUniform initializes candidate idx's delta state — the pair-local
// external degrees from one adjacency scan, the constant Eq. 9 term —
// and its gain. The scan applies the same dual-view read rule as the
// general path: a neighbor whose frozen owner is outside the pair is
// read at its wave-constant frozen assignment.
func (r *Refiner) seedUniform(idx int, pi, pj int32, orig []int32, c [][]float64) {
	v := r.cands[idx]
	from := r.p.Assign[v]
	to := pi
	if from == pi {
		to = pj
	}
	var dfrom, dto int64
	if frozen := r.frozen; frozen != nil {
		if r.profile != nil {
			// Seeding runs before any of this pair's moves, so every
			// pair-owned neighbor still sits at its wave-start (frozen)
			// owner and the dual-view sum collapses to the wave-start
			// profile: two presorted-segment lookups, no adjacency walk.
			// Integer sums are order-free, so this is the exact value
			// the scan below computes.
			dfrom, dto = r.profile.GetPair(v, from, to)
		} else {
			// Dual-view read: a neighbor counts toward the pair only if
			// both its frozen owner and its live owner are in the pair —
			// foreign vertices are read at their wave-constant frozen
			// assignment, so concurrent pairs cannot perturb this sum.
			adj := r.g.Neighbors(v)
			w := r.g.EdgeWeights(v)
			w = w[:len(adj)]
			assign := r.p.Assign
			for i, u := range adj {
				a := frozen[u]
				if a == from || a == to {
					switch assign[u] {
					case from:
						dfrom += int64(w[i])
					case to:
						dto += int64(w[i])
					}
				}
			}
		}
	} else {
		adj := r.g.Neighbors(v)
		w := r.g.EdgeWeights(v)
		w = w[:len(adj)]
		assign := r.p.Assign
		for i, u := range adj {
			switch assign[u] {
			case from:
				dfrom += int64(w[i])
			case to:
				dto += int64(w[i])
			}
		}
	}
	r.dfrom[idx] = dfrom
	r.dto[idx] = dto
	k0 := orig[v]
	r.gmig[idx] = float64(r.g.VertexSize(v)) * (c[from][k0] - c[to][k0])
	r.gains[idx] = r.uniformGain(idx, from, to, c)
}

// uniformGain is Eq. 5 specialized to an off-diagonal-constant cost
// matrix (standard FM): every Eq. 8 term carries a factor
// c[from][k]−c[to][k], which is exactly zero for k ∉ {from, to}, so
// g_topo is identically +0.0 and the gain is a pure function of the
// maintained pair-local external degrees. The expression tree matches
// the historical rescan implementation term for term, so delta
// re-evaluation is bit-identical to a full recompute.
func (r *Refiner) uniformGain(idx int, from, to int32, c [][]float64) float64 {
	gStd := r.cfg.Alpha * float64(r.dto[idx]-r.dfrom[idx]) * c[from][to]
	gTopo := 0.0 // Σ dext[k]·0 — kept as an explicit +0.0 term so the
	// final sum associates exactly as the general path's (gStd+gTopo)+gMig
	gMig := r.gmig[idx]
	return gStd + gTopo + gMig
}

// gain computes Eq. 5 for moving v from `from` to `to` using the sparse
// external-degree scratch: O(deg(v) + K/64 + t) per evaluation instead of
// the dense O(deg(v) + K). The partitions are visited in ascending order
// (the touched bitmap is drained low bit first), matching the dense
// loop's summation order bit for bit. Only the general (non-uniform)
// path comes through here; uniform matrices run in delta mode.
func (r *Refiner) gain(v, from, to int32, orig []int32, c [][]float64) float64 {
	if r.frozen != nil {
		r.touched = partition.ExternalDegreesSparseFrozen(r.g, r.p.Assign, r.frozen, v, from, to, r.dext, r.dmask, r.touched[:0])
	} else {
		r.touched = partition.ExternalDegreesSparse(r.g, r.p, v, r.dext, r.dmask, r.touched[:0])
	}
	// Eq. 6: impact on the (Pi, Pj) cut.
	gStd := r.cfg.Alpha * float64(r.dext[to]-r.dext[from]) * c[from][to]
	// Eq. 8: impact on v's communication with every other partition.
	var gTopo float64
	for _, k := range r.touched {
		if k == from || k == to {
			continue
		}
		gTopo += float64(r.dext[k]) * (c[from][k] - c[to][k])
	}
	gTopo *= r.cfg.Alpha
	// Eq. 9: impact on migration cost relative to the original owner.
	k0 := orig[v]
	gMig := float64(r.g.VertexSize(v)) * (c[from][k0] - c[to][k0])
	for _, k := range r.touched {
		r.dext[k] = 0 // sparse reset: only the touched entries
	}
	return gStd + gTopo + gMig
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
