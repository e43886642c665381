package paragon

import (
	"math/rand"
	"testing"

	"paragon/internal/faultsim"
	"paragon/internal/gen"
	"paragon/internal/partition"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

// TestDeltaWaveSyncMatchesFullCopy cross-checks the scheduler's delta
// wave sync against the design it replaced: after EVERY wave barrier the
// frozen view — patched only from the move log — must equal a from-
// scratch full copy of the round-start assignment with the waves' kept
// moves replayed in task order, and the wave-start neighbor profile must
// equal one rebuilt from scratch against that frozen view. Asserted at
// Workers 1, 2 and 8, over both profile seedings (two lookups under a
// uniform matrix, the segment walk under an arch-aware one).
func TestDeltaWaveSyncMatchesFullCopy(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, workers int)
	}{
		{
			name: "uniform",
			run: func(t *testing.T, workers int) {
				g := gen.BarabasiAlbert(2500, 4, 7)
				g.UseDegreeWeights()
				p := stream.LDG(g, 24, stream.DefaultOptions())
				if _, err := RefineUniform(g, p, Config{DRP: 4, Shuffles: 2, Seed: 11, Workers: workers}); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "arch-aware-khop",
			run: func(t *testing.T, workers int) {
				g := gen.RMAT(2000, 12000, 0.57, 0.19, 0.19, 13)
				g.UseDegreeWeights()
				cl := topology.PittCluster(2)
				const k = 16
				c, err := cl.PartitionCostMatrix(k, 0)
				if err != nil {
					t.Fatal(err)
				}
				p := stream.DG(g, k, stream.DefaultOptions())
				if _, err := Refine(g, p, c, Config{DRP: 4, Shuffles: 1, Seed: 5, KHop: 1, Workers: workers}); err != nil {
					t.Fatal(err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 8} {
				var replay []int32
				waves := 0
				testRoundStart = func(sc *scheduler) {
					// Delta round-sync invariant: between rounds the three
					// views agree without any copying having happened.
					for v := range sc.frozen {
						if sc.frozen[v] != sc.pm.Assign[v] || sc.cur.Assign[v] != sc.pm.Assign[v] {
							t.Fatalf("round %d start: views disagree at vertex %d: frozen=%d cur=%d master=%d",
								sc.round, v, sc.frozen[v], sc.cur.Assign[v], sc.pm.Assign[v])
						}
					}
					replay = append(replay[:0], sc.pm.Assign...)
				}
				testWaveSynced = func(sc *scheduler, wave int, lo, hi int32) {
					waves++
					for ti := lo; ti < hi; ti++ {
						for _, mv := range sc.taskMoves(ti) {
							replay[mv.V] = mv.To
						}
					}
					for v := range replay {
						if sc.frozen[v] != replay[v] {
							t.Fatalf("workers=%d round %d wave %d: frozen[%d]=%d, full-copy replay says %d",
								workers, sc.round, wave, v, sc.frozen[v], replay[v])
						}
					}
					want, err := partition.BuildNeighborProfile(sc.g, sc.frozen, sc.pm.K)
					if err != nil {
						t.Fatal(err)
					}
					for v := int32(0); v < sc.g.NumVertices(); v++ {
						for q := int32(0); q < sc.pm.K; q++ {
							if got, exp := sc.profile.Get(v, q), want.Get(v, q); got != exp {
								t.Fatalf("workers=%d round %d wave %d: profile(%d,%d)=%d, rebuild says %d",
									workers, sc.round, wave, v, q, got, exp)
							}
						}
					}
				}
				tc.run(t, workers)
				testRoundStart, testWaveSynced = nil, nil
				if waves == 0 {
					t.Fatalf("workers=%d: no wave ever synced; the cross-check is vacuous", workers)
				}
			}
		})
	}
}

// TestDeltaSyncCrashedGroupFrozenUntouched is the fault-matrix case of
// the delta sync: a crashed group's tournament is discarded upfront, so
// none of its pairs is scheduled and the frozen view's entries for the
// group's vertices must still hold their round-start values at every
// wave barrier of the crashed round — the delta patch must not leak a
// discarded pair's moves.
func TestDeltaSyncCrashedGroupFrozenUntouched(t *testing.T) {
	g := gen.RMAT(3000, 18000, 0.57, 0.19, 0.19, 31)
	g.UseDegreeWeights()
	const k, drp = 24, 4
	const seed = 9
	p0 := stream.DG(g, k, stream.DefaultOptions())

	// Reproduce Refine's round-0 grouping (the grouping rng is seeded
	// with cfg.Seed and consumed first) to learn which partitions crash.
	rng := rand.New(rand.NewSource(seed))
	groups := randomGrouping(k, drp, rng)
	const crashed = 2
	inCrashed := make([]bool, k)
	for _, pi := range groups[crashed] {
		inCrashed[pi] = true
	}

	for _, workers := range []int{1, 2, 8} {
		var start []int32
		checked := 0
		testRoundStart = func(sc *scheduler) {
			if sc.round == 0 {
				start = append(start[:0], sc.frozen...)
			}
		}
		testWaveSynced = func(sc *scheduler, wave int, lo, hi int32) {
			if sc.round != 0 {
				return
			}
			checked++
			for v := range sc.frozen {
				if inCrashed[start[v]] && sc.frozen[v] != start[v] {
					t.Fatalf("workers=%d wave %d: frozen[%d] %d -> %d inside crashed group",
						workers, wave, v, start[v], sc.frozen[v])
				}
				if !inCrashed[start[v]] && inCrashed[sc.frozen[v]] {
					t.Fatalf("workers=%d wave %d: frozen[%d] entered crashed partition %d",
						workers, wave, v, sc.frozen[v])
				}
			}
		}
		fab := faultsim.NewInjector(faultsim.Config{Script: []faultsim.Event{
			{Kind: faultsim.KindCrash, Round: 0, Index: crashed}}})
		p := p0.Clone()
		st, err := Refine(g, p, topology.UniformMatrix(k), Config{DRP: drp, Shuffles: 0, Seed: seed, Workers: workers, Fabric: fab})
		testRoundStart, testWaveSynced = nil, nil
		if err != nil {
			t.Fatal(err)
		}
		if st.Faults.CrashedGroups != 1 {
			t.Fatalf("crashed groups = %d, want 1", st.Faults.CrashedGroups)
		}
		if checked == 0 {
			t.Fatalf("workers=%d: no wave of the crashed round was checked", workers)
		}
	}
}
