// Package portfolio races P independently seeded refinements of the same
// input decomposition on a bounded worker pool and keeps the best — the
// KaFFPaE-style ensemble layer over the PARAGON refinement.
//
// Members are embarrassingly parallel: each owns a private
// partition.Index and a one-worker paragon.WaveEngine over the shared
// read-only graph, runs its shuffle-refinement tournament to completion —
// one pair per wave, so the barriers are its own and a pair sees every
// move before it — and never synchronizes with other members (the
// coarse-grained parallelism the pair-level scheduler cannot extract
// from these graphs). Determinism is therefore trivial rather than
// subtle: a member's output is a pure function of (input assignment,
// member seed, effective config), scheduling decides only *when* a
// member runs, and selection folds the finished members in ascending
// member id with the strict partition.Score total order (score, then
// member id). The selected output is bit-identical at every
// Config.Workers value, which TestPortfolioDeterminism asserts.
//
// The combine operator (combine.go) overlays the two best members and
// re-refines only where they disagree — the one phase whose waves hold
// several pairs: every pair of the touched partitions, on member scratch
// 0's wave engine reopened with all cfg.Workers workers. Faults
// (Config.Fabric / FaultRate) resolve per member, up front, on the
// coordinator — a crashed member forfeits and is excluded from scoring,
// never silently substituted.
package portfolio

import (
	"fmt"
	"sync"
	"time"

	"paragon/internal/detrand"
	"paragon/internal/faultsim"
	"paragon/internal/graph"
	"paragon/internal/paragon"
	"paragon/internal/partition"
)

// MemberStats is one member's line in Stats, indexed by member id.
type MemberStats struct {
	Seed      int64           // the member's grouping seed
	Forfeited bool            // excluded by the fault fabric before running
	Score     partition.Score // zero value when forfeited
	Moves     int             // kept moves across the member's rounds
	Gain      float64         // total realized Eq. 5 gain
	CPUTime   time.Duration   // wall time of the member's run on its worker
}

// Stats reports what one portfolio refinement did. Every field except
// the stopwatches (WallTime, CPUTime, Members[i].CPUTime) is identical
// at every Config.Workers value.
type Stats struct {
	Size     int           // members configured (forfeits included)
	Forfeits int           // members excluded by the fault fabric
	Members  []MemberStats // per member, ascending member id

	Winner   int // best surviving member id; -1 if all forfeited
	RunnerUp int // second best; -1 if fewer than two survivors

	// Combine operator accounting (zero values when it did not run).
	CombineDiff    int             // vertices on which the two best members disagree
	CombinePairs   int             // pair refinements its rounds ran (every pair of the touched partitions, per round)
	CombineWaves   int             // wave barriers they ran in
	CombineMoves   int             // moves kept by the boundary-restricted rounds
	CombineGain    float64         // realized Eq. 5 gain of those rounds
	CombinedScore  partition.Score // score of the overlay after re-refinement
	CombineApplied bool            // the overlay beat the winner and was selected

	InputScore    partition.Score // the input decomposition (no migration)
	SelectedScore partition.Score // the decomposition left in p

	WallTime time.Duration // whole-call stopwatch
	CPUTime  time.Duration // Σ member CPU — the member-level concurrency witness
}

// Refine races cfg.Portfolio.Size seeded refinements of p and leaves the
// selected decomposition in p.Assign. One-shot form of RefineWithPool.
func Refine(g *graph.Graph, p *partition.Partitioning, c [][]float64, cfg paragon.Config) (Stats, error) {
	var pool Pool
	return RefineWithPool(g, p, c, cfg, &pool)
}

// runner carries one call's shared state into the worker goroutines.
// Workers claim members by the static stride m ≡ w (mod workers) and
// write only member-id-indexed result slots plus their own scratch — the
// same ownership discipline as the pair scheduler's arenas.
type runner struct {
	pool    *Pool
	base    []int32
	c       [][]float64
	par     memberParams
	size    int
	workers int
	wg      sync.WaitGroup
}

func (r *runner) worker(w int) {
	defer r.wg.Done()
	pl := r.pool
	scr := pl.scratch[w]
	for m := w; m < r.size; m += r.workers {
		if pl.forfeit[m] {
			continue
		}
		//lint:ignore wallclock per-member CPU stopwatch for MemberStats.CPUTime; never read by refinement decisions
		t0 := time.Now()
		par := r.par
		par.seed = pl.seeds[m]
		mv, gn := scr.run(r.base, r.c, par)
		copy(pl.assigns[m], scr.p.Assign)
		pl.scores[m] = partition.ComputeScoreInto(pl.g, scr.p, r.base, r.c, par.cfg.Alpha, scr.wbuf)
		pl.moves[m] = mv
		pl.gains[m] = gn
		//lint:ignore wallclock per-member CPU stopwatch for MemberStats.CPUTime; never read by refinement decisions
		pl.cpu[m] = int64(time.Since(t0))
	}
}

// memberSeed derives member m's grouping seed: member 0 inherits the
// configured seed unchanged, members beyond it decorrelate via the
// splitmix64 mixer — pure arithmetic, no shared rng stream to order.
// Sharing the seed does not make member 0 reproduce paragon.Refine: a
// member deals its groups with rng.Shuffle (regroup) and runs its pairs on
// the wave engine one per wave, each seeing every move before it, without
// the scheduler's wave-start profile.
func memberSeed(seed int64, m int) int64 {
	if m == 0 {
		return seed
	}
	return int64(detrand.Mix64(uint64(seed) ^ detrand.Mix64(uint64(m))))
}

// RefineWithPool is Refine on caller-owned scratch: passing the same
// Pool across calls on the same (graph, k) makes steady-state
// allocations flat in the member count. The pool must not be shared by
// concurrent calls.
func RefineWithPool(g *graph.Graph, p *partition.Partitioning, c [][]float64, cfg paragon.Config, pool *Pool) (Stats, error) {
	//lint:ignore wallclock whole-run stopwatch for Stats.WallTime; never read by refinement decisions
	start := time.Now()
	if err := p.Validate(g); err != nil {
		return Stats{}, fmt.Errorf("portfolio: %w", err)
	}
	if err := partition.CheckCosts(c, p.K); err != nil {
		return Stats{}, fmt.Errorf("portfolio: %w", err)
	}
	cfg = cfg.WithDefaults(p.K)
	size := cfg.Portfolio.Size
	st := Stats{Size: size, Winner: -1, RunnerUp: -1}
	st.InputScore = partition.ComputeScore(g, p, nil, c, cfg.Alpha)

	workers := cfg.Workers
	if workers > size {
		workers = size
	}
	pool.ensure(g, p.Assign, p.K, workers, size, cfg.AragonConfig())
	for m := 0; m < size; m++ {
		pool.seeds[m] = memberSeed(cfg.Seed, m)
	}

	// Member fates resolve up front, on the coordinator, at round -1 —
	// a coordinate no inner refinement round uses, so a portfolio fate
	// never collides with (and never perturbs) the scripted or hashed
	// fault schedule of a plain Refine on the same fabric. A crashed or
	// timed-out member forfeits: it does not run and is excluded from
	// scoring. Fates depend only on (fabric, member id) — not on
	// workers, not on completion order.
	fab := cfg.FaultFabric()
	pol := faultsim.DefaultPolicy()
	if fab != nil {
		for m := 0; m < size; m++ {
			if fab.CrashGroup(-1, m) || fab.GroupDelay(-1, m) > pol.RoundTimeout {
				pool.forfeit[m] = true
				st.Forfeits++
			}
		}
	}

	if p.K >= 2 {
		r := &runner{
			pool:    pool,
			base:    p.Assign,
			c:       c,
			size:    size,
			workers: workers,
			par:     runnerParams(cfg, g, p.K),
		}
		r.wg.Add(workers)
		for w := 0; w < workers; w++ {
			go r.worker(w)
		}
		r.wg.Wait()
	} else {
		// k < 2: nothing to refine; members trivially reproduce the input.
		for m := 0; m < size; m++ {
			if !pool.forfeit[m] {
				copy(pool.assigns[m], p.Assign)
				pool.scores[m] = st.InputScore
			}
		}
	}

	// Selection: ascending member id with the strict Better order — the
	// lowest id wins full ties, and the fold is independent of which
	// worker ran what.
	for m := 0; m < size; m++ {
		if pool.forfeit[m] {
			continue
		}
		if st.Winner < 0 || pool.scores[m].Better(pool.scores[st.Winner]) {
			st.Winner = m
		}
	}
	for m := 0; m < size; m++ {
		if pool.forfeit[m] || m == st.Winner {
			continue
		}
		if st.RunnerUp < 0 || pool.scores[m].Better(pool.scores[st.RunnerUp]) {
			st.RunnerUp = m
		}
	}

	var selected []int32 // nil: all members forfeited, leave p untouched
	if st.Winner >= 0 {
		selected = pool.assigns[st.Winner]
		st.SelectedScore = pool.scores[st.Winner]
	} else {
		st.SelectedScore = st.InputScore
	}

	if cfg.Portfolio.CombineTop >= 2 && st.RunnerUp >= 0 {
		pool.combine(&st, pool.assigns[st.Winner], pool.assigns[st.RunnerUp], p.Assign, c, cfg, combineRounds)
		if st.CombinedScore.Better(st.SelectedScore) {
			st.CombineApplied = true
			selected = pool.scratch[0].p.Assign
			st.SelectedScore = st.CombinedScore
		}
	}

	st.Members = make([]MemberStats, size)
	for m := 0; m < size; m++ {
		st.Members[m] = MemberStats{
			Seed:      pool.seeds[m],
			Forfeited: pool.forfeit[m],
			Score:     pool.scores[m],
			Moves:     pool.moves[m],
			Gain:      pool.gains[m],
			CPUTime:   time.Duration(pool.cpu[m]),
		}
		st.CPUTime += time.Duration(pool.cpu[m])
	}

	if selected != nil {
		copy(p.Assign, selected)
	}
	emitObservability(cfg, &st)
	//lint:ignore wallclock whole-run stopwatch for Stats.WallTime; never read by refinement decisions
	st.WallTime = time.Since(start)
	return st, nil
}

// runnerParams projects the effective member parameters out of a
// defaulted config: a member refines on one worker and reports through
// Stats, never the tracer.
func runnerParams(cfg paragon.Config, g *graph.Graph, k int32) memberParams {
	cfg.Workers, cfg.Trace = 1, nil
	return memberParams{cfg: cfg, maxLoad: partition.BalanceBound(g, k, cfg.MaxImbalance)}
}
