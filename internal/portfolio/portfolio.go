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
// (Config.Fabric) resolve per member, up front, on the coordinator — a
// crashed member forfeits and is excluded from scoring, never silently
// substituted.
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
	Gain      float64         // claimed Eq. 5 gain of its rounds, as paragon.Stats.Gain
	CPUTime   time.Duration   // wall time of the member's run on its worker
}

// Stats reports what one portfolio refinement did. Every field except
// the stopwatches (WallTime, CPUTime, Members[i].CPUTime) is identical
// at every Config.Workers value.
type Stats struct {
	Size     int           // members configured (forfeits included)
	Forfeits int           // members excluded by the fault fabric
	Members  []MemberStats // per member, ascending member id

	Winner   int // best surviving member id; -1 if all forfeited or k < 2
	RunnerUp int // second best; -1 if fewer than two survivors

	// Combine operator accounting (zero values when it did not run).
	CombineDiff    int             // vertices on which the two best members disagree
	CombinePairs   int             // pair refinements its rounds ran (every pair of the touched partitions, per round)
	CombineWaves   int             // wave barriers they ran in
	CombineMoves   int             // moves kept by the boundary-restricted rounds
	CombineGain    float64         // claimed Eq. 5 gain of those rounds, as paragon.Stats.Gain
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
// write only member m's Stats.Members line and pool.assigns[m] plus their
// own scratch — the same ownership discipline as the scheduler's arenas.
type runner struct {
	pool    *Pool
	members []MemberStats
	base    []int32
	c       *partition.Costs
	par     memberParams
	workers int
	wg      sync.WaitGroup
}

func (r *runner) worker(w int) {
	defer r.wg.Done()
	pl := r.pool
	scr := pl.scratch[w]
	for m := w; m < len(r.members); m += r.workers {
		if r.members[m].Forfeited {
			continue
		}
		//lint:ignore wallclock per-member CPU stopwatch for MemberStats.CPUTime; never read by refinement decisions
		t0 := time.Now()
		par := r.par
		par.seed = r.members[m].Seed
		mv, gn := scr.run(r.base, r.c, par)
		copy(pl.assigns[m], scr.p.Assign)
		r.members[m].Score = partition.ComputeScoreInto(pl.g, scr.p, r.base, r.c, partition.Alpha(par.cfg.Alpha), scr.wbuf)
		r.members[m].Moves = mv
		r.members[m].Gain = r.c.Real(gn)
		//lint:ignore wallclock per-member CPU stopwatch for MemberStats.CPUTime; never read by refinement decisions
		r.members[m].CPUTime = time.Since(t0)
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
	cs, err := partition.CheckCosts(c, p.K)
	if err != nil {
		return Stats{}, fmt.Errorf("portfolio: %w", err)
	}
	cfg = cfg.WithDefaults(p.K)
	if err := partition.CheckObjective(g, cs, cfg.Alpha); err != nil {
		return Stats{}, fmt.Errorf("portfolio: %w", err)
	}
	st := Stats{Size: cfg.Portfolio.Size, Winner: -1, RunnerUp: -1}
	st.InputScore = partition.ComputeScoreInto(g, p, nil, cs, partition.Alpha(cfg.Alpha), make([]int64, p.K))
	st.SelectedScore = st.InputScore
	// k < 2: nothing to refine, so nothing to observe — no member runs, no
	// event, no metric.
	if p.K >= 2 {
		pool.race(&st, g, p, cs, cfg)
		emitObservability(cfg, &st)
	}
	//lint:ignore wallclock whole-run stopwatch for Stats.WallTime; never read by refinement decisions
	st.WallTime = time.Since(start)
	return st, nil
}

// race runs the members on the worker pool, selects the best, combines
// the two best and leaves the selected decomposition in p, recording all
// of it in st (whose InputScore and SelectedScore hold the input's).
func (pool *Pool) race(st *Stats, g *graph.Graph, p *partition.Partitioning, cs *partition.Costs, cfg paragon.Config) {
	size := st.Size
	workers := cfg.Workers
	if workers > size {
		workers = size
	}
	pool.ensure(g, p.Assign, p.K, workers, size, cfg.AragonConfig())
	st.Members = make([]MemberStats, size)
	for m := range st.Members {
		st.Members[m].Seed = memberSeed(cfg.Seed, m)
	}

	// Member fates resolve up front, on the coordinator, at round -1 —
	// a coordinate no inner refinement round uses, so a portfolio fate
	// never collides with (and never perturbs) the scripted or hashed
	// fault schedule of a plain Refine on the same fabric. A crashed or
	// timed-out member forfeits: it does not run and is excluded from
	// scoring. Fates depend only on (fabric, member id) — not on
	// workers, not on completion order.
	fab := cfg.Fabric
	fab.Observe(cfg.Metrics)
	if fab != nil {
		for m := 0; m < size; m++ {
			if fab.CrashGroup(-1, m) || fab.GroupDelay(-1, m) > faultsim.RoundTimeout {
				st.Members[m].Forfeited = true
				st.Forfeits++
			}
		}
	}

	r := &runner{
		pool:    pool,
		members: st.Members,
		base:    p.Assign,
		c:       cs,
		workers: workers,
		par:     runnerParams(cfg, g, p.K),
	}
	r.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go r.worker(w)
	}
	r.wg.Wait()

	// Selection: ascending member id with the strict Better order — the
	// lowest id wins full ties, and the fold is independent of which
	// worker ran what.
	for m, ms := range st.Members {
		if ms.Forfeited {
			continue
		}
		if st.Winner < 0 || ms.Score.Better(st.Members[st.Winner].Score) {
			st.Winner = m
		}
	}
	for m, ms := range st.Members {
		if ms.Forfeited || m == st.Winner {
			continue
		}
		if st.RunnerUp < 0 || ms.Score.Better(st.Members[st.RunnerUp].Score) {
			st.RunnerUp = m
		}
	}

	var selected []int32 // nil: all members forfeited, leave p untouched
	if st.Winner >= 0 {
		selected = pool.assigns[st.Winner]
		st.SelectedScore = st.Members[st.Winner].Score
	}

	if st.RunnerUp >= 0 {
		pool.combine(st, pool.assigns[st.Winner], pool.assigns[st.RunnerUp], p.Assign, cs, cfg, combineRounds)
		if st.CombinedScore.Better(st.SelectedScore) {
			st.CombineApplied = true
			selected = pool.scratch[0].p.Assign
			st.SelectedScore = st.CombinedScore
		}
	}

	for _, ms := range st.Members {
		st.CPUTime += ms.CPUTime
	}

	if selected != nil {
		copy(p.Assign, selected)
	}
}

// runnerParams projects the effective member parameters out of a
// defaulted config: a member refines on one worker and reports through
// Stats (the wave engine never emits).
func runnerParams(cfg paragon.Config, g *graph.Graph, k int32) memberParams {
	cfg.Workers = 1
	return memberParams{cfg: cfg, maxLoad: partition.BalanceBound(g, k, cfg.MaxImbalance)}
}
