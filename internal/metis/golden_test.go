package metis

import (
	"fmt"
	"testing"

	"paragon/internal/gen"
	"paragon/internal/graph"
	"paragon/internal/partition"
)

// TestPartitionGoldens pins the output of both METIS modes — recursive
// bisection and direct k-way — so a change to coarsening, the initial
// bisection or either refiner must re-pin deliberately instead of
// drifting silently. METIS is the initial partitioner of the mesh
// benchmark and the paper's baseline (Fig. 9, Table 4, Fig. 14).
func TestPartitionGoldens(t *testing.T) {
	want := map[string]uint64{
		"mesh300/rb/k2/s1":        0x51b5c111324baa48,
		"mesh300/kway/k2/s1":      0xca402acd0504795e,
		"mesh300/rb/k2/s42":       0xe609aa7b4790d9d2,
		"mesh300/kway/k2/s42":     0x4e632a844f70d55d,
		"mesh300/rb/k7/s1":        0x0dd9ce6ebd92c93c,
		"mesh300/kway/k7/s1":      0xf3e85ad6f9e9d9e5,
		"mesh300/rb/k7/s42":       0x875dd29c5ab76fc2,
		"mesh300/kway/k7/s42":     0xf1aa8f63939fd7f4,
		"mesh300/rb/k32/s1":       0x51ba25d7a743bd8d,
		"mesh300/kway/k32/s1":     0xbc4a54d685b42f54,
		"mesh300/rb/k32/s42":      0x652d53abd8384147,
		"mesh300/kway/k32/s42":    0xdf404af8a8460bcd,
		"rmat20k-dw/rb/k2/s1":     0x59a1acd2ac4b4c57,
		"rmat20k-dw/kway/k2/s1":   0x2c86d9aea7bd1ba0,
		"rmat20k-dw/rb/k2/s42":    0x75155f89de650482,
		"rmat20k-dw/kway/k2/s42":  0x2490d5cbee3ff816,
		"rmat20k-dw/rb/k7/s1":     0x170959e682690a13,
		"rmat20k-dw/kway/k7/s1":   0xe1bd73f7674f36a8,
		"rmat20k-dw/rb/k7/s42":    0x16cb312f52bf8c40,
		"rmat20k-dw/kway/k7/s42":  0x98637f06e4b6d236,
		"rmat20k-dw/rb/k32/s1":    0x2fda65db8e2a6f9c,
		"rmat20k-dw/kway/k32/s1":  0xbd1a96af5cd35921,
		"rmat20k-dw/rb/k32/s42":   0x1eb6fd238969cfb5,
		"rmat20k-dw/kway/k32/s42": 0x3d54dc2a5dbcef99,
		"rmat5k/rb/k2/s1":         0x4df9c097d7000c24,
		"rmat5k/kway/k2/s1":       0x01628a8c29d7a841,
		"rmat5k/rb/k2/s42":        0xa0b34573898d8778,
		"rmat5k/kway/k2/s42":      0x84107d3d7aa10745,
		"rmat5k/rb/k7/s1":         0x56943226957d0aad,
		"rmat5k/kway/k7/s1":       0x9fa0c842e4272099,
		"rmat5k/rb/k7/s42":        0x3249e53599c9116a,
		"rmat5k/kway/k7/s42":      0xba3ad34ec1c4d61a,
		"rmat5k/rb/k32/s1":        0x2a1827317dde6d17,
		"rmat5k/kway/k32/s1":      0xa30cd2b31ab03083,
		"rmat5k/rb/k32/s42":       0x8e672ec4f29b800f,
		"rmat5k/kway/k32/s42":     0xc5e87dfec5f3ff73,
	}
	rmatDW := gen.RMAT(20000, 160000, .57, .19, .19, 3)
	rmatDW.UseDegreeWeights() // non-unit vertex weights
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"mesh300", gen.Mesh2D(300, 300)},
		{"rmat20k-dw", rmatDW},
		{"rmat5k", gen.RMAT(5000, 30000, .57, .19, .19, 9)},
	} {
		for _, k := range []int32{2, 7, 32} {
			for _, seed := range []int64{1, 42} {
				for _, m := range []struct {
					name string
					fn   func(*graph.Graph, int32, Options) *partition.Partitioning
				}{{"rb", Partition}, {"kway", PartitionKWay}} {
					key := fmt.Sprintf("%s/%s/k%d/s%d", tc.name, m.name, k, seed)
					p := m.fn(tc.g, k, Options{Seed: seed})
					got := partition.PackAssign(p.Assign, p.K).Hash64()
					if got != want[key] {
						t.Errorf("%s: hash %#016x, want %#016x", key, got, want[key])
					}
				}
			}
		}
	}
}
