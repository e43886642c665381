package paragon

import (
	"slices"
	"testing"

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
