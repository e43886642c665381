package paragon

import (
	"hash/fnv"
	"testing"

	"paragon/internal/gen"
	"paragon/internal/partition"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

// assignHash is an order-sensitive FNV-1a digest of a decomposition —
// two partitionings hash equal iff every vertex has the same owner.
func assignHash(p *partition.Partitioning) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, a := range p.Assign {
		buf[0] = byte(a)
		buf[1] = byte(a >> 8)
		buf[2] = byte(a >> 16)
		buf[3] = byte(a >> 24)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestGoldenRefineHashes pins the exact output of Refine for fixed seeds.
// The hashes were re-pinned once when the per-group serial pair loop was
// replaced by the tournament-wave scheduler (DESIGN.md §12): the wave
// schedule visits the same pairs in a different order and reads foreign
// vertices at their wave-start owner instead of the round-start
// snapshot, so the output is a different — equally valid, quality-checked
// — fixed point. mesh-uniform-drp8 kept its original hash: with groups
// of two the tournament degenerates to the old one-pair-per-group order.
// Any further drift is a regression: the scheduler contract is that the
// output is bit-identical for every Config.Workers value.
func TestGoldenRefineHashes(t *testing.T) {
	cases := []struct {
		name string
		want uint64
		// workers lists the Config.Workers values the case is asserted at;
		// nil runs it once at the default.
		workers []int
		run     func(t *testing.T, workers int) *partition.Partitioning
	}{
		{
			name: "rmat-arch-aware-khop1",
			want: 0x1caf529afa79f675,
			run: func(t *testing.T, workers int) *partition.Partitioning {
				g := gen.RMAT(5000, 30000, 0.57, 0.19, 0.19, 9)
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
				if _, err := Refine(g, p, c, Config{DRP: 4, Shuffles: 3, Seed: 77, KHop: 1, NodeOf: nodeOf, Workers: workers}); err != nil {
					t.Fatal(err)
				}
				return p
			},
		},
		{
			name: "mesh-uniform-drp8",
			want: 0x2faf8c0c76b878fe,
			run: func(t *testing.T, workers int) *partition.Partitioning {
				g := gen.Mesh2D(80, 80)
				p := stream.HP(g, 16)
				if _, err := RefineUniform(g, p, Config{DRP: 8, Shuffles: 2, Seed: 5, Workers: workers}); err != nil {
					t.Fatal(err)
				}
				return p
			},
		},
		{
			name: "ba-serial-drp1",
			want: 0xa88d2033a0264ad5,
			run: func(t *testing.T, workers int) *partition.Partitioning {
				g := gen.BarabasiAlbert(3000, 4, 3)
				g.UseDegreeWeights()
				p := stream.LDG(g, 8, stream.DefaultOptions())
				if _, err := RefineUniform(g, p, Config{DRP: 1, Shuffles: 1, Seed: 11, Workers: workers}); err != nil {
					t.Fatal(err)
				}
				return p
			},
		},
		{
			// The regime the benchmark's rmat workload runs: non-uniform
			// costs with NodeOf, k = 128 (two touched-partition mask
			// words), boundary-only candidates (KHop 0), several shuffles.
			// Pinned before the general-cost gain path went delta-mode, so
			// it is the scan-based kernel's output.
			name:    "rmat-arch-aware-k128-khop0",
			want:    0xc766f46b917512ca,
			workers: []int{1, 2, 8},
			run: func(t *testing.T, workers int) *partition.Partitioning {
				g := gen.RMAT(12000, 90000, 0.57, 0.19, 0.19, 21)
				g.UseDegreeWeights()
				cl := topology.PittCluster(7)
				k := 128
				c, err := cl.PartitionCostMatrix(k, 0)
				if err != nil {
					t.Fatal(err)
				}
				nodeOf, err := cl.NodeOf(k)
				if err != nil {
					t.Fatal(err)
				}
				p := stream.DG(g, int32(k), stream.DefaultOptions())
				if _, err := Refine(g, p, c, Config{DRP: 8, Shuffles: 2, Seed: 41, NodeOf: nodeOf, Workers: workers}); err != nil {
					t.Fatal(err)
				}
				return p
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			workers := tc.workers
			if workers == nil {
				workers = []int{0}
			}
			for _, w := range workers {
				got := assignHash(tc.run(t, w))
				t.Logf("assign hash %s workers=%d = %#x", tc.name, w, got)
				if got != tc.want {
					t.Fatalf("workers=%d: assign hash = %#x, want %#x — refinement output drifted from the scan-based reference", w, got, tc.want)
				}
			}
		})
	}
}
