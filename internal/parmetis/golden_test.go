package parmetis

import (
	"fmt"
	"testing"

	"paragon/internal/gen"
	"paragon/internal/graph"
	"paragon/internal/partition"
	"paragon/internal/stream"
)

// TestRepartitionGoldens pins both repartitioning methods from a hashed
// and a greedy start, so a change to the diffusion, the k-way cut repair
// or the label remap must re-pin deliberately instead of drifting
// silently.
func TestRepartitionGoldens(t *testing.T) {
	want := map[string]uint64{
		"mesh60/k2/hp/remap":         0xb710030b9bb68c84,
		"mesh60/k2/hp/diffusion":     0x53315fcb1a561def,
		"mesh60/k2/dg/remap":         0xb710030b9bb68c84,
		"mesh60/k2/dg/diffusion":     0x822fda0b82c572b7,
		"mesh60/k7/hp/remap":         0x5a1a05d756c4274f,
		"mesh60/k7/hp/diffusion":     0x4b3840ee3f204481,
		"mesh60/k7/dg/remap":         0xb8e000dc9068a8b5,
		"mesh60/k7/dg/diffusion":     0xfb28915b2dea33f5,
		"mesh60/k32/hp/remap":        0x295a62e90f2ae965,
		"mesh60/k32/hp/diffusion":    0x130d330d5954ecbc,
		"mesh60/k32/dg/remap":        0x0ec4c1814976dddd,
		"mesh60/k32/dg/diffusion":    0x6fa82013ae264b63,
		"rmat5k-dw/k2/hp/remap":      0xfd5c264a2b376df2,
		"rmat5k-dw/k2/hp/diffusion":  0x9ac6b8d1fbe5c1a6,
		"rmat5k-dw/k2/dg/remap":      0xfd5c264a2b376df2,
		"rmat5k-dw/k2/dg/diffusion":  0x426ce15ee5186e69,
		"rmat5k-dw/k7/hp/remap":      0x2e8965ee512ad161,
		"rmat5k-dw/k7/hp/diffusion":  0x228e6cb63546eb74,
		"rmat5k-dw/k7/dg/remap":      0xc92a36c3650d6d33,
		"rmat5k-dw/k7/dg/diffusion":  0x51251b081b14b812,
		"rmat5k-dw/k32/hp/remap":     0xf9b91a84984d8b32,
		"rmat5k-dw/k32/hp/diffusion": 0x02959272485e49d6,
		"rmat5k-dw/k32/dg/remap":     0x65ad8bad25ffb6f6,
		"rmat5k-dw/k32/dg/diffusion": 0xfa5d484e9787c20c,
	}
	rmat := gen.RMAT(5000, 30000, .57, .19, .19, 8)
	rmat.UseDegreeWeights()
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"mesh60", gen.Mesh2D(60, 60)}, {"rmat5k-dw", rmat}} {
		for _, k := range []int32{2, 7, 32} {
			for _, start := range []struct {
				name string
				p    *partition.Partitioning
			}{{"hp", stream.HP(tc.g, k)}, {"dg", stream.DG(tc.g, k, stream.Options{Eps: 0.3})}} {
				for _, m := range []struct {
					name   string
					method Method
				}{{"remap", ScratchRemap}, {"diffusion", Diffusion}} {
					key := fmt.Sprintf("%s/k%d/%s/%s", tc.name, k, start.name, m.name)
					p, err := Repartition(tc.g, start.p, Options{Method: m.method, Eps: 0.05, Seed: 3})
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					if got := partition.PackAssign(p.Assign, p.K).Hash64(); got != want[key] {
						t.Errorf("%q: %#016x, want %#016x", key, got, want[key])
					}
				}
			}
		}
	}
}
