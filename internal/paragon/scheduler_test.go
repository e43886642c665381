package paragon

import (
	"math/rand"
	"reflect"
	"testing"

	"paragon/internal/faultsim"
	"paragon/internal/gen"
	"paragon/internal/partition"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

// TestSchedulerDeterminism is the scheduler's core contract: the final
// decomposition AND every Stats field except the wall clock are
// bit-identical for any Config.Workers value. Run under -race (ci.sh
// exercises -cpu=1,4) this also proves the waves are data-race free.
func TestSchedulerDeterminism(t *testing.T) {
	type cse struct {
		name string
		run  func(t *testing.T, workers int) (*partition.Partitioning, Stats)
	}
	cases := []cse{
		{
			// Arch-aware cost matrix (g_topo seeded from the profile
			// segment), k-hop 1 mask, even group sizes.
			name: "arch-aware",
			run: func(t *testing.T, workers int) (*partition.Partitioning, Stats) {
				g := gen.RMAT(4000, 24000, 0.57, 0.19, 0.19, 13)
				g.UseDegreeWeights()
				cl := topology.PittCluster(2)
				k := 32
				c, err := cl.PartitionCostMatrix(k, 0)
				if err != nil {
					t.Fatal(err)
				}
				nodeOf, err := cl.NodeOf(k)
				if err != nil {
					t.Fatal(err)
				}
				p := stream.DG(g, int32(k), stream.DefaultOptions())
				st, err := Refine(g, p, c, Config{DRP: 4, Shuffles: 2, Seed: 5, KHop: 1, NodeOf: nodeOf, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				return p, st
			},
		},
		{
			// Uniform matrix (two profile lookups per seed), odd group
			// sizes so the tournament's bye slot is exercised, plus a
			// stochastic fault schedule over the upfront fate resolution.
			name: "uniform-odd-faulty",
			run: func(t *testing.T, workers int) (*partition.Partitioning, Stats) {
				g := gen.BarabasiAlbert(3000, 4, 7)
				g.UseDegreeWeights()
				p := stream.LDG(g, 30, stream.DefaultOptions())
				st, err := RefineUniform(g, p, Config{DRP: 4, Shuffles: 3, Seed: 11, Workers: workers,
					Fabric: faultsim.NewInjector(faultsim.Config{Seed: 6, Rate: 0.15})})
				if err != nil {
					t.Fatal(err)
				}
				return p, st
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pRef, stRef := tc.run(t, 1)
			stRef.RefinementTime = 0
			hRef := assignHash(pRef)
			for _, w := range []int{2, 8} {
				p, st := tc.run(t, w)
				st.RefinementTime = 0
				if assignHash(p) != hRef {
					t.Fatalf("Workers=%d produced a different decomposition than Workers=1", w)
				}
				if !reflect.DeepEqual(st, stRef) {
					t.Fatalf("Workers=%d stats diverged from Workers=1:\n%+v\nvs\n%+v", w, st, stRef)
				}
			}
		})
	}
}

// A crashed group discards its ENTIRE tournament — every pair, including
// pairs of tournament rounds that executed before the crash would have
// surfaced. With the upfront fate resolution none of the group's pairs
// is ever scheduled, so the group's partitions come out of the round
// exactly as they went in, at every worker count.
func TestCrashedGroupDiscardsWholeTournament(t *testing.T) {
	g := gen.RMAT(3000, 18000, 0.57, 0.19, 0.19, 31)
	g.UseDegreeWeights()
	const k, drp = 24, 4
	const seed = 9
	p0 := stream.DG(g, k, stream.DefaultOptions())

	// Reproduce Refine's round-0 grouping: the grouping rng is seeded
	// with cfg.Seed and consumed before anything else.
	rng := rand.New(rand.NewSource(seed))
	groups := randomGrouping(k, drp, rng)
	const crashed = 2
	if len(groups[crashed]) < 4 {
		t.Fatalf("group %d has %d partitions; need ≥4 for a multi-round tournament", crashed, len(groups[crashed]))
	}
	inCrashed := make([]bool, k)
	for _, pi := range groups[crashed] {
		inCrashed[pi] = true
	}

	run := func(workers int, crash bool) *partition.Partitioning {
		var script []faultsim.Event
		if crash {
			script = []faultsim.Event{{Kind: faultsim.KindCrash, Round: 0, Index: crashed}}
		}
		fab := faultsim.NewInjector(faultsim.Config{Script: script})
		p := p0.Clone()
		st, err := Refine(g, p, topology.UniformMatrix(k), Config{DRP: drp, Shuffles: 0, Seed: seed, Workers: workers, Fabric: fab})
		if err != nil {
			t.Fatal(err)
		}
		if crash && st.Faults.CrashedGroups != 1 {
			t.Fatalf("crashed groups = %d, want 1", st.Faults.CrashedGroups)
		}
		return p
	}

	pCrash := run(1, true)
	for v := int32(0); v < g.NumVertices(); v++ {
		if inCrashed[p0.Assign[v]] && pCrash.Assign[v] != p0.Assign[v] {
			t.Fatalf("vertex %d left crashed group's partition %d -> %d: a discarded pair's move leaked", v, p0.Assign[v], pCrash.Assign[v])
		}
		if !inCrashed[p0.Assign[v]] && inCrashed[pCrash.Assign[v]] {
			t.Fatalf("vertex %d entered crashed group's partition %d", v, pCrash.Assign[v])
		}
	}

	// Non-vacuity: without the crash the same group does move vertices
	// (its tournament includes multiple rounds of pairs).
	pLive := run(1, false)
	moved := 0
	for v := int32(0); v < g.NumVertices(); v++ {
		if inCrashed[p0.Assign[v]] && pLive.Assign[v] != p0.Assign[v] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("control run never moved a vertex of the (un)crashed group; the crash assertion is vacuous")
	}

	// The crashed schedule replays bit-identically at Workers > 1.
	h := assignHash(pCrash)
	for _, w := range []int{2, 8} {
		if got := assignHash(run(w, true)); got != h {
			t.Fatalf("crashed-schedule replay at Workers=%d diverged", w)
		}
	}
}
