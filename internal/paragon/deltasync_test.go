package paragon

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"paragon/internal/faultsim"
	"paragon/internal/gen"
	"paragon/internal/graph"
	"paragon/internal/partition"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

// TestDeltaWaveSyncMatchesFullCopy asserts the scheduler's barrier
// invariant after EVERY wave barrier, against state rebuilt from
// scratch: the master — patched only from the move log — equals a full
// copy of the input with the waves' kept moves replayed in task order,
// its index validates against a rebuild, the shadow's view equals the
// master and its bucket prefixes are the movable members, the scheduler's
// loads equal the master's partition weights, every movable vertex has a
// profile segment, and every segment equals the one a table built over
// the master for all vertices holds. The state repairBoundary leaves
// before a round's first wave is held to the same.
// Asserted at Workers 1, 2 and 8, over both profile seedings (two lookups
// under a uniform matrix, the segment walk under an arch-aware one), with
// a quarter of the groups degraded by the fault layer, and with one
// scripted crash — a crashed group's tournament is discarded up front, so
// during its round its partitions must neither lose nor gain a vertex.
func TestDeltaWaveSyncMatchesFullCopy(t *testing.T) {
	const crashK, crashDRP, crashSeed, crashed = 24, 4, 9, 2
	cases := []struct {
		name  string
		input func(t *testing.T) (*graph.Graph, *partition.Partitioning, [][]float64, Config)
		// untouched lists partitions no move may enter or leave in round 0.
		untouched func() []int32
	}{
		{
			name: "uniform",
			input: func(t *testing.T) (*graph.Graph, *partition.Partitioning, [][]float64, Config) {
				g := gen.BarabasiAlbert(2500, 4, 7)
				g.UseDegreeWeights()
				return g, stream.LDG(g, 24, stream.DefaultOptions()), topology.UniformMatrix(24),
					Config{DRP: 4, Shuffles: 2, Seed: 11}
			},
		},
		{
			name: "arch-aware-khop",
			input: func(t *testing.T) (*graph.Graph, *partition.Partitioning, [][]float64, Config) {
				g, p, c := archAwareInput(t)
				return g, p, c, Config{DRP: 4, Shuffles: 1, Seed: 5, KHop: 1}
			},
		},
		{
			name: "fault-rate",
			input: func(t *testing.T) (*graph.Graph, *partition.Partitioning, [][]float64, Config) {
				g, p, c := archAwareInput(t)
				return g, p, c, Config{DRP: 4, Shuffles: 3, Seed: 5, FaultRate: 0.3, FaultSeed: 2}
			},
		},
		{
			name: "crashed-group",
			input: func(t *testing.T) (*graph.Graph, *partition.Partitioning, [][]float64, Config) {
				g := gen.RMAT(3000, 18000, 0.57, 0.19, 0.19, 31)
				g.UseDegreeWeights()
				fab := faultsim.NewInjector(faultsim.Config{Script: []faultsim.Event{
					{Kind: faultsim.KindCrash, Round: 0, Index: crashed}}})
				return g, stream.DG(g, crashK, stream.DefaultOptions()), topology.UniformMatrix(crashK),
					Config{DRP: crashDRP, Seed: crashSeed, Fabric: fab}
			},
			// Refine's round-0 grouping: the grouping rng is seeded with
			// cfg.Seed and consumed first.
			untouched: func() []int32 {
				return randomGrouping(crashK, crashDRP, rand.New(rand.NewSource(crashSeed)))[crashed]
			},
		},
	}
	defer func() { testWaveSynced = nil }()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 8} {
				g, p, c, cfg := tc.input(t)
				cfg.Workers = workers
				inUntouched := make([]bool, p.K)
				if tc.untouched != nil {
					for _, q := range tc.untouched() {
						inUntouched[q] = true
					}
				}
				replay := slices.Clone(p.Assign)
				waves := 0
				testWaveSynced = func(sc *WaveEngine, wave int, lo, hi int32) {
					if wave >= 0 {
						waves++
					}
					for ti := lo; ti < hi; ti++ {
						for _, mv := range sc.TaskMoves(ti) {
							if sc.round == 0 && (inUntouched[replay[mv.V]] || inUntouched[mv.To]) {
								t.Fatalf("workers=%d wave %d: vertex %d moved %d -> %d through a crashed group",
									workers, wave, mv.V, replay[mv.V], mv.To)
							}
							replay[mv.V] = mv.To
						}
					}
					checkBarrierInvariant(t, sc, replay)
				}
				st, err := Refine(g, p, c, cfg)
				testWaveSynced = nil
				if err != nil {
					t.Fatal(err)
				}
				if waves == 0 {
					t.Fatalf("workers=%d: no wave ever synced; the cross-check is vacuous", workers)
				}
				if cfg.FaultRate > 0 && st.Faults.DegradedGroups == 0 {
					t.Fatal("no group was degraded; the faulty case is vacuous")
				}
				if tc.untouched != nil && st.Faults.CrashedGroups != 1 {
					t.Fatalf("crashed groups = %d, want 1", st.Faults.CrashedGroups)
				}
			}
		})
	}
}

// TestPairCandidatesMatchScan holds the fast candidate path of a real
// Refine to a scan that shares nothing with it. At the start of every
// round the oracle derives the movable mask on its own — the O(|V|·deg)
// boundary definition, expanded by graph.ExpandFrontier — and demands the
// scheduler's mask be that set; at that point and at every wave barrier
// it enumerates, for each pair of the wave about to run, every vertex of
// the two partitions under the master assignment whose oracle bit is set,
// and demands exactly that list from the shadow's prefix copy ordered by
// SortCandidates. Index, Shadow, NeighborProfile and the mask repair
// appear on one side only. K-hop 0, 1 and 2, Workers 1/2/8, with a third
// of the groups degraded so schedules with holes are covered.
func TestPairCandidatesMatchScan(t *testing.T) {
	defer func() { testWaveSynced = nil }()
	for _, khop := range []int{0, 1, 2} {
		for _, workers := range []int{1, 2, 8} {
			g, p, c := archAwareInput(t)
			n := g.NumVertices()
			var movable []bool // the oracle's mask for the current round
			words := make([]uint64, partition.MaskWords(n))
			summary := make([]uint64, partition.MaskWords(int32(len(words))))
			pairs, candidates := 0, 0
			testWaveSynced = func(sc *WaveEngine, wave int, _, _ int32) {
				if wave < 0 {
					movable = movableScan(g, sc.pm, khop)
					checkMask(t, fmt.Sprintf("khop=%d workers=%d round %d", khop, workers, sc.round), sc, khop)
				}
				if wave+2 >= len(sc.Waves) {
					return // the round's last barrier: no wave left to enumerate for
				}
				for _, task := range sc.Tasks[sc.Waves[wave+1]:sc.Waves[wave+2]] {
					var want []int32
					for v := int32(0); v < n; v++ {
						if a := sc.pm.Assign[v]; (a == task[0] || a == task[1]) && movable[v] {
							want = append(want, v)
						}
					}
					got := sc.shadow.AppendPairUnsorted(nil, task[0], task[1], sc.mask)
					partition.SortCandidates(got, words, summary)
					if !slices.Equal(got, want) {
						t.Fatalf("khop=%d workers=%d round %d, before wave %d, pair (%d,%d): shadow lists %d candidates, the scan %d",
							khop, workers, sc.round, wave+1, task[0], task[1], len(got), len(want))
					}
					pairs++
					candidates += len(want)
				}
			}
			st, err := Refine(g, p, c, Config{DRP: 4, Shuffles: 2, Seed: 5, KHop: khop, Workers: workers, FaultRate: 0.3, FaultSeed: 2})
			testWaveSynced = nil
			if err != nil {
				t.Fatal(err)
			}
			if pairs != st.PairsRefined || candidates == 0 || st.Faults.DegradedGroups == 0 {
				t.Fatalf("khop=%d workers=%d: %d pairs checked of %d refined, %d candidates, %d degraded groups; the oracle missed some",
					khop, workers, pairs, st.PairsRefined, candidates, st.Faults.DegradedGroups)
			}
		}
	}
}

func archAwareInput(t *testing.T) (*graph.Graph, *partition.Partitioning, [][]float64) {
	g := gen.RMAT(2000, 12000, 0.57, 0.19, 0.19, 13)
	g.UseDegreeWeights()
	const k = 16
	c, err := topology.PittCluster(2).PartitionCostMatrix(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g, stream.DG(g, k, stream.DefaultOptions()), c
}

// checkBarrierInvariant compares every piece of engine state that is
// patched from the move log against the same state built from scratch;
// replay is the input assignment with every kept move so far applied. An
// engine without a profile has no segments to compare.
func checkBarrierInvariant(t *testing.T, sc *WaveEngine, replay []int32) {
	t.Helper()
	if !slices.Equal(sc.pm.Assign, replay) {
		t.Fatalf("round %d: master differs from the full-copy replay of the kept moves", sc.round)
	}
	if err := sc.ix.Validate(); err != nil {
		t.Fatalf("round %d: master index: %v", sc.round, err)
	}
	if !slices.Equal(sc.shadow.Partitioning().Assign, sc.pm.Assign) {
		t.Fatalf("round %d: shadow view differs from the master", sc.round)
	}
	if !slices.Equal(sc.loads, sc.pm.Weights(sc.g)) {
		t.Fatalf("round %d: loads %v, master weights %v", sc.round, sc.loads, sc.pm.Weights(sc.g))
	}
	if err := sc.shadow.Validate(); err != nil {
		t.Fatalf("round %d: %v", sc.round, err)
	}
	if sc.profile == nil {
		return
	}
	want, err := partition.BuildNeighborProfile(sc.g, sc.pm.Assign, sc.pm.K, 1)
	if err != nil {
		t.Fatal(err)
	}
	materialized := 0
	for v := int32(0); v < sc.g.NumVertices(); v++ {
		if !sc.profile.Materialized(v) {
			if sc.mask.Get(v) {
				t.Fatalf("round %d: movable vertex %d has no profile segment", sc.round, v)
			}
			continue
		}
		materialized++
		gp, gw, gs := sc.profile.Segment(v)
		wp, ww, ws := want.Segment(v)
		if !slices.Equal(gp, wp) || !slices.Equal(gw, ww) || gs != ws {
			t.Fatalf("round %d: segment of %d = %v/%v size %d, the full table says %v/%v size %d", sc.round, v, gp, gw, gs, wp, ww, ws)
		}
	}
	if materialized == 0 {
		t.Fatalf("round %d: no vertex is materialized; the profile check is vacuous", sc.round)
	}
}
