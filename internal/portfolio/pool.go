package portfolio

import (
	"math/rand"

	"paragon/internal/aragon"
	"paragon/internal/graph"
	"paragon/internal/paragon"
	"paragon/internal/partition"
)

// memberScratch is everything one portfolio member needs to refine: a
// private Partitioning + Index over the shared frozen graph, the wave
// engine and movable mask its rounds run on, a seeded rng, and every
// per-round buffer, all reused across members. A scratch carries no member
// identity — run fully re-seeds it from the (assignment, seed) of
// whichever member it executes — which is what makes the member-id-keyed
// free list (member m runs on slot m mod workers) a pure scheduling choice
// with no effect on any member's output.
type memberScratch struct {
	g   *graph.Graph
	p   *partition.Partitioning
	ix  *partition.Index
	eng paragon.WaveEngine // one worker for the member; scratch 0's also runs the combine
	mov paragon.Movable
	src rand.Source
	rng *rand.Rand

	perm     []int32   // grouping permutation scratch
	flat     []int32   // backing array for the grouping's member lists
	groups   [][]int32 // group headers over flat
	shuffle  []int     // ShuffleGroupsScratch permutation buffer
	mask     *partition.Bitset
	boundary []int32 // combine: the disagreement, then its expansion
	inPart   []bool  // combine: partitions touched by the disagreement
	parts    []int32 // combine: those partitions, ascending
	wbuf     []int64 // ComputeScoreInto weight buffer
}

// memberParams is the per-run parameter block handed to a scratch: the
// effective (defaulted) driver settings every member refines under — one
// worker, no tracer — plus the member's own grouping seed.
type memberParams struct {
	seed    int64
	cfg     paragon.Config
	maxLoad int64
}

// newMemberScratch builds a scratch whose engine has its own refiner, lent
// to it through Spare so the pool can lend the same one to scratch 0's.
func newMemberScratch(g *graph.Graph, base []int32, k int32, acfg aragon.Config) *memberScratch {
	n := g.NumVertices()
	p := &partition.Partitioning{K: k, Assign: make([]int32, n)}
	copy(p.Assign, base) // realistic bucket sizes for the index prealloc
	ix := partition.BuildIndex(g, p)
	src := rand.NewSource(0)
	scr := &memberScratch{
		g:      g,
		p:      p,
		ix:     ix,
		src:    src,
		rng:    rand.New(src),
		perm:   make([]int32, k),
		flat:   make([]int32, k),
		groups: make([][]int32, 0, k/2+1),
		mask:   partition.NewBitset(n),
		inPart: make([]bool, k),
		wbuf:   make([]int64, k),
	}
	scr.eng.Spare = []*aragon.Refiner{aragon.NewRefiner(g, ix, acfg)}
	return scr
}

// regroup deals the partitions into at most drp groups of >= 2, from a
// fresh uniform permutation — the same round-robin rule as the driver's
// randomGrouping, in allocation-free form (the permutation, the group
// headers, and the flat member backing are all reused scratch). Group gi
// holds perm[idx] for idx ≡ gi (mod m), laid out contiguously in flat.
func (scr *memberScratch) regroup(drp int) [][]int32 {
	k := int(scr.p.K)
	for i := 0; i < k; i++ {
		scr.perm[i] = int32(i)
	}
	scr.rng.Shuffle(k, func(i, j int) {
		scr.perm[i], scr.perm[j] = scr.perm[j], scr.perm[i]
	})
	m := drp
	if m > k/2 {
		m = k / 2
	}
	if m < 1 {
		m = 1
	}
	scr.groups = scr.groups[:0]
	off := 0
	for gi := 0; gi < m; gi++ {
		sz := (k - gi + m - 1) / m // members gi, gi+m, gi+2m, ...
		grp := scr.flat[off : off : off+sz]
		for idx := gi; idx < k; idx += m {
			grp = append(grp, scr.perm[idx])
		}
		scr.groups = append(scr.groups, grp)
		off += sz
	}
	return scr.groups
}

// run executes one member to completion: reseed the scratch from the
// base assignment and the member's seed, group, then refine 1+shuffles
// rounds of circle-tournament pairs, shuffling the grouping between
// rounds — Algorithm 1's inner loop without the group-server selection
// and shipping accounting, which only feed Stats. base doubles as the
// Eq. 3 migration reference. Groups ascending, tournament rounds in order,
// pairs in the schedule's emission order, each pair its own wave: at k-hop
// 0 the mask is repaired at every barrier, so a pair's candidates are the
// live boundary of its two partitions; at a positive radius it is the
// expansion of the round-start boundary.
func (scr *memberScratch) run(base []int32, c [][]float64, par memberParams) (moves int, gain float64) {
	copy(scr.p.Assign, base)
	scr.ix.Rebuild()
	scr.src.Seed(par.seed)
	groups := scr.regroup(par.cfg.DRP)
	e := &scr.eng
	e.Open(scr.g, scr.ix, c, base, par.maxLoad, par.cfg, nil)
	defer e.Close()
	scr.mov.Reset(scr.ix, par.cfg.KHop)
	rounds := 1 + par.cfg.Shuffles
	for round := 0; round < rounds; round++ {
		scr.mov.Repair(e)
		e.Tasks, e.Waves = e.Tasks[:0], append(e.Waves[:0], 0)
		for _, grp := range groups {
			m := len(grp)
			for t := 0; t < m+(m&1)-1; t++ {
				e.Tasks = paragon.AppendTournamentRound(e.Tasks, grp, t)
			}
		}
		for ti := range e.Tasks {
			e.Waves = append(e.Waves, int32(ti+1))
		}
		var mv int
		var gn float64
		e.Run(func(_ int, ti, _ int32) {
			mv += e.Results[ti].Moves
			gn += e.Results[ti].Gain
			scr.mov.Moved(e.TaskMoves(ti))
			if par.cfg.KHop == 0 {
				scr.mov.Repair(e)
			}
		})
		moves += mv
		gain += gn
		if round+1 < rounds {
			scr.shuffle = paragon.ShuffleGroupsScratch(groups, scr.rng, round, scr.shuffle)
		}
	}
	return moves, gain
}

// Pool owns the reusable state of portfolio refinement: one
// memberScratch per worker slot plus the per-member result buffers the
// coordinator reads after the join. Reusing one Pool across calls on the
// same (graph, k) keeps steady-state allocations flat in the member
// count — asserted by TestPortfolioPoolAllocsFlat.
type Pool struct {
	g       *graph.Graph
	k       int32
	acfg    aragon.Config
	scratch []*memberScratch

	// Per-member result buffers, indexed by member id: each is written
	// by exactly the worker that ran the member, then read only by the
	// coordinator after the join.
	assigns [][]int32
	scores  []partition.Score
	moves   []int
	gains   []float64
	cpu     []int64 // nanoseconds, Stats-only
	forfeit []bool
	seeds   []int64
}

// ensure sizes the pool for a run of size members on workers worker
// slots, rebuilding only what changed. A pool is bound to the (g, k,
// refiner-config) triple it last served; any mismatch rebuilds the
// scratch set.
func (pl *Pool) ensure(g *graph.Graph, base []int32, k int32, workers, size int, acfg aragon.Config) {
	if pl.g != g || pl.k != k || pl.acfg != acfg {
		pl.g, pl.k, pl.acfg = g, k, acfg
		pl.scratch = pl.scratch[:0]
		pl.assigns = pl.assigns[:0]
	}
	for len(pl.scratch) < workers {
		scr := newMemberScratch(g, base, k, acfg)
		if len(pl.scratch) > 0 {
			// The combine runs on scratch 0's engine after the join, when every
			// member's refiner is idle: its worker w borrows scratch w's.
			s0 := &pl.scratch[0].eng
			s0.Spare = append(s0.Spare, scr.eng.Spare[0])
		}
		pl.scratch = append(pl.scratch, scr)
	}
	for len(pl.assigns) < size {
		pl.assigns = append(pl.assigns, make([]int32, len(base)))
	}
	if cap(pl.scores) < size {
		pl.scores = make([]partition.Score, size)
		pl.moves = make([]int, size)
		pl.gains = make([]float64, size)
		pl.cpu = make([]int64, size)
		pl.forfeit = make([]bool, size)
		pl.seeds = make([]int64, size)
	}
	pl.scores = pl.scores[:size]
	pl.moves = pl.moves[:size]
	pl.gains = pl.gains[:size]
	pl.cpu = pl.cpu[:size]
	pl.forfeit = pl.forfeit[:size]
	pl.seeds = pl.seeds[:size]
	for m := 0; m < size; m++ {
		pl.scores[m] = partition.Score{}
		pl.moves[m] = 0
		pl.gains[m] = 0
		pl.cpu[m] = 0
		pl.forfeit[m] = false
		pl.seeds[m] = 0
	}
}
