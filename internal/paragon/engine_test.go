package paragon

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"paragon/internal/aragon"
	"paragon/internal/graph"
	"paragon/internal/partition"
	"paragon/internal/topology"
)

// TestAntiDiagonalSchedule pins what the combine's determinism argument
// needs of AppendAntiDiagonalWaves, for m = 2…65 parts: every pair exactly
// once, ascending inside the pair, the pairs of a wave pairwise disjoint,
// and any two pairs that share a partition scheduled in their
// lexicographic order, in different waves.
func TestAntiDiagonalSchedule(t *testing.T) {
	for m := 2; m <= 65; m++ {
		parts := make([]int32, m)
		for i := range parts {
			parts[i] = int32(3*i + 1) // ascending, not the indices themselves
		}
		tasks, waves := AppendAntiDiagonalWaves(nil, nil, parts)
		if len(tasks) != m*(m-1)/2 || len(waves) != 2*m-2 || waves[0] != 0 || int(waves[len(waves)-1]) != len(tasks) {
			t.Fatalf("m=%d: %d pairs, wave offsets %v", m, len(tasks), waves)
		}
		waveOf := map[[2]int32]int{}
		for w := 0; w+1 < len(waves); w++ {
			used := map[int32]bool{}
			if waves[w] == waves[w+1] {
				t.Fatalf("m=%d: wave %d is empty", m, w)
			}
			for _, pr := range tasks[waves[w]:waves[w+1]] {
				if pr[0] >= pr[1] || used[pr[0]] || used[pr[1]] {
					t.Fatalf("m=%d wave %d: pair %v is unordered or shares a partition with its wave", m, w, pr)
				}
				used[pr[0]], used[pr[1]] = true, true
				if _, dup := waveOf[pr]; dup {
					t.Fatalf("m=%d: pair %v scheduled twice", m, pr)
				}
				waveOf[pr] = w
			}
		}
		for p, wp := range waveOf {
			for q, wq := range waveOf {
				shares := p[0] == q[0] || p[0] == q[1] || p[1] == q[0] || p[1] == q[1]
				if p == q || !shares {
					continue
				}
				lexLess := p[0] < q[0] || (p[0] == q[0] && p[1] < q[1])
				if wp == wq || lexLess != (wp < wq) {
					t.Fatalf("m=%d: %v runs in wave %d, %v in wave %d", m, p, wp, q, wq)
				}
			}
		}
	}
}

// TestWaveEngineExplicitSchedule drives the engine the way the portfolio's
// combine does — a caller's index, a caller's mask (an arbitrary third of
// the vertices, not a boundary), an explicit anti-diagonal schedule over a
// subset of the partitions, no profile — and holds every barrier to the
// invariant TestDeltaWaveSyncMatchesFullCopy holds Refine's to: the master
// is the input with the kept moves replayed, its index validates, the
// shadow equals it and validates against the mask, the loads are its
// weights. Uniform and architecture-aware costs (the two no-profile
// seedings), Workers 1/2/8, two Open…Close calls on one engine; the result
// must not depend on the worker count.
func TestWaveEngineExplicitSchedule(t *testing.T) {
	defer func() { testWaveSynced = nil }()
	g, p0, arch := archAwareInput(t)
	for name, c := range map[string][][]float64{"uniform": topology.UniformMatrix(16), "arch-aware": arch} {
		var want []int32
		for _, workers := range []int{1, 2, 8} {
			p := p0.Clone()
			ix := partition.BuildIndex(g, p)
			cfg := Config{Workers: workers}.WithDefaults(p.K)
			mask := partition.NewBitset(g.NumVertices())
			var members []int32
			for v := int32(0); v < g.NumVertices(); v += 3 {
				mask.Set(v)
				members = append(members, v)
			}
			var e WaveEngine
			replay := slices.Clone(p.Assign)
			barriers, moves := 0, 0
			testWaveSynced = func(sc *WaveEngine, wave int, lo, hi int32) {
				barriers++
				for ti := lo; ti < hi; ti++ {
					for _, mv := range sc.TaskMoves(ti) {
						if !mask.Get(mv.V) {
							t.Fatalf("%s workers=%d: unmasked vertex %d moved", name, workers, mv.V)
						}
						replay[mv.V] = mv.To
						moves++
					}
				}
				checkBarrierInvariant(t, sc, replay)
			}
			for call := 0; call < 2; call++ {
				e.Open(g, ix, c, p0.Assign, partition.BalanceBound(g, p.K, cfg.MaxImbalance), cfg, nil)
				e.SetMask(mask, members)
				e.Tasks, e.Waves = AppendAntiDiagonalWaves(e.Tasks[:0], e.Waves[:0], []int32{0, 2, 3, 5, 8, 9, 13, 14, 15})
				e.Run(nil)
				e.Close()
			}
			testWaveSynced = nil
			if barriers != 2*15 || moves == 0 {
				t.Fatalf("%s workers=%d: %d barriers, %d moves; the check is vacuous", name, workers, barriers, moves)
			}
			if want == nil {
				want = p.Assign
			} else if !slices.Equal(p.Assign, want) {
				t.Fatalf("%s workers=%d: result differs from workers=1", name, workers)
			}
		}
	}
}

// movableScan is the movable set by definition: every vertex with a
// neighbor in another partition, expanded khop hops by graph.ExpandFrontier
// — nothing shared with Movable, Index or Bitset.Expand.
func movableScan(g *graph.Graph, p *partition.Partitioning, khop int) []bool {
	var boundary []int32
	for v := int32(0); v < g.NumVertices(); v++ {
		if partition.IsBoundary(g, p, v) {
			boundary = append(boundary, v)
		}
	}
	in := make([]bool, g.NumVertices())
	for _, v := range graph.ExpandFrontier(g, boundary, khop, nil) {
		in[v] = true
	}
	return in
}

func checkMask(t *testing.T, what string, e *WaveEngine, khop int) {
	t.Helper()
	want := movableScan(e.g, e.pm, khop)
	for v, in := range want {
		if e.mask.Get(int32(v)) != in {
			t.Fatalf("%s: mask bit of %d is %v, the scan says %v", what, v, !in, in)
		}
	}
	if err := e.shadow.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// TestMovableMatchesScan holds the movable mask to its definition in a
// portfolio member's rounds — one pair per wave on a one-worker engine,
// repaired at every barrier at k-hop 0, at every round start otherwise —
// at k-hop 0, 1 and 2, and every barrier to the barrier invariant.
// (TestPairCandidatesMatchScan holds Refine's mask to the same scan at the
// start of every round.)
func TestMovableMatchesScan(t *testing.T) {
	for _, khop := range []int{0, 1, 2} {
		g, p0, c := archAwareInput(t)
		t.Run(fmt.Sprintf("khop%d", khop), func(t *testing.T) {
			p := p0.Clone()
			ix := partition.BuildIndex(g, p)
			cfg := Config{Workers: 1, KHop: khop}.WithDefaults(p.K)
			var e WaveEngine
			var mov Movable
			e.Open(g, ix, c, p0.Assign, partition.BalanceBound(g, p.K, cfg.MaxImbalance), cfg, nil)
			defer e.Close()
			mov.Reset(ix, khop)
			rng := rand.New(rand.NewSource(3))
			groups := randomGrouping(p.K, 3, rng)
			replay := slices.Clone(p.Assign)
			barriers := 0
			var shuffle []int
			for round := 0; round < 3; round++ {
				mov.Repair(&e)
				checkMask(t, fmt.Sprintf("round %d start", round), &e, khop)
				e.Tasks, e.Waves = e.Tasks[:0], append(e.Waves[:0], 0)
				for _, grp := range groups {
					for r := 0; r < len(grp)+len(grp)&1-1; r++ {
						e.Tasks = AppendTournamentRound(e.Tasks, grp, r)
					}
				}
				for ti := range e.Tasks {
					e.Waves = append(e.Waves, int32(ti+1))
				}
				e.Run(func(_ int, ti, _ int32) {
					for _, mv := range e.TaskMoves(ti) {
						replay[mv.V] = mv.To
					}
					mov.Moved(e.TaskMoves(ti))
					checkBarrierInvariant(t, &e, replay)
					if khop == 0 {
						mov.Repair(&e)
						checkMask(t, fmt.Sprintf("round %d barrier %d", round, ti), &e, khop)
					}
					barriers++
				})
				shuffle = ShuffleGroupsScratch(groups, rng, round, shuffle)
			}
			if barriers == 0 || slices.Equal(replay, p0.Assign) {
				t.Fatalf("%d barriers, assignment unchanged: the check is vacuous", barriers)
			}
		})
	}
}

// TestShipAccountingMatchesScan holds accountShipping's walk of the
// shadow's masked bucket prefixes to its definition — every vertex of the
// movable scan whose partition's group server is another partition, with
// its degree — on every round of a driven refinement, at k-hop 0, 1 and 2.
func TestShipAccountingMatchesScan(t *testing.T) {
	for _, khop := range []int{0, 1, 2} {
		g, p, c := archAwareInput(t)
		d := &driver{g: g, p: p, c: c, cfg: Config{Workers: 2, KHop: khop, DRP: 3, Shuffles: 3, Seed: 5}.WithDefaults(p.K)}
		if err := d.open(); err != nil {
			t.Fatal(err)
		}
		for round := int32(0); round <= int32(d.cfg.Shuffles); round++ {
			d.repairBoundary()
			servers := d.selectServers()
			serverOf := map[int32]int32{}
			for gi, grp := range d.groups {
				for _, q := range grp {
					serverOf[q] = servers[gi]
				}
			}
			var verts, edges int64
			for v, in := range movableScan(g, p, khop) {
				if sv, ok := serverOf[p.Assign[v]]; in && ok && sv != p.Assign[v] {
					verts++
					edges += int64(g.Degree(int32(v)))
				}
			}
			before := d.st
			d.accountShipping(round, servers)
			if gv, ge := d.st.BoundaryShipped-before.BoundaryShipped, d.st.ShippedEdgeVolume-before.ShippedEdgeVolume; gv != verts || ge != edges || verts == 0 {
				t.Fatalf("khop=%d round %d: shipped %d vertices, %d half-edges; the scan says %d, %d", khop, round, gv, ge, verts, edges)
			}
			d.refineWaves(round, d.resolveFates(round))
			d.shuffle = ShuffleGroupsScratch(d.groups, d.rng, int(round), d.shuffle)
		}
		d.sc.Close()
	}
}

// TestOneWorkerEngineRunsInline: an engine opened with one worker starts no
// goroutine — its waves run on the caller's — and refines a one-pair-per-wave
// schedule exactly as a two-worker engine does: every Result and the final
// assignment equal. Reopened with two workers over the same index, the
// engine keeps its shadow, refines the same, and stops them again on Close.
func TestOneWorkerEngineRunsInline(t *testing.T) {
	g, p0, c := archAwareInput(t)
	var pairs [][2]int32
	for _, grp := range randomGrouping(p0.K, 2, rand.New(rand.NewSource(7))) {
		for r := 0; r < len(grp)+len(grp)&1-1; r++ {
			pairs = AppendTournamentRound(pairs, grp, r)
		}
	}
	run := func(e *WaveEngine, ix *partition.Index, workers int) []aragon.Result {
		p := ix.Partitioning()
		copy(p.Assign, p0.Assign)
		ix.Rebuild()
		cfg := Config{Workers: workers}.WithDefaults(p.K)
		before := runtime.NumGoroutine()
		e.Open(g, ix, c, p0.Assign, partition.BalanceBound(g, p.K, cfg.MaxImbalance), cfg, nil)
		if started := runtime.NumGoroutine() - before; (workers == 1) != (started == 0) {
			t.Fatalf("workers=%d: Open started %d goroutines", workers, started)
		}
		var mov Movable
		mov.Reset(ix, 0)
		mov.Repair(e)
		e.Tasks, e.Waves = append(e.Tasks[:0], pairs...), append(e.Waves[:0], 0)
		for ti := range e.Tasks {
			e.Waves = append(e.Waves, int32(ti+1))
		}
		var results []aragon.Result
		e.Run(func(_ int, ti, _ int32) {
			results = append(results, e.Results[ti])
			mov.Moved(e.TaskMoves(ti))
			mov.Repair(e)
		})
		e.Close()
		for i := 0; i < 1000 && runtime.NumGoroutine() > before; i++ {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("workers=%d: %d goroutines before Open, %d after Close", workers, before, n)
		}
		return results
	}
	ix1 := partition.BuildIndex(g, p0.Clone())
	ix2 := partition.BuildIndex(g, p0.Clone())
	var e WaveEngine
	r1 := run(&e, ix1, 1)
	a1 := slices.Clone(ix1.Partitioning().Assign)
	if r2 := run(new(WaveEngine), ix2, 2); !slices.Equal(r1, r2) || !slices.Equal(a1, ix2.Partitioning().Assign) {
		t.Fatal("one inline worker and two workers refined the same schedule differently")
	}
	if slices.Equal(a1, p0.Assign) {
		t.Fatal("no pair kept a move: the comparison is vacuous")
	}
	shadow := e.shadow
	if r := run(&e, ix1, 2); !slices.Equal(r, r1) || !slices.Equal(ix1.Partitioning().Assign, a1) || e.shadow != shadow {
		t.Fatal("the one-worker engine reopened with two workers rebuilt its shadow or refined differently")
	}
}
