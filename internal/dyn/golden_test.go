package dyn

import (
	"fmt"
	"testing"

	"paragon/internal/gen"
	"paragon/internal/graph"
	"paragon/internal/partition"
)

// TestInjectGoldens pins the decomposition an Inject chain reaches over
// five cumulative snapshots, so a change to the injection's placement
// rule must re-pin deliberately instead of drifting silently. eps 0
// leaves no room above the balance bound, so the least-loaded fallback
// fires.
func TestInjectGoldens(t *testing.T) {
	want := map[string]uint64{
		"mesh70/k2/eps0":        0xafb7eca890f12a87,
		"mesh70/k2/eps0.02":     0xe196518463d499ee,
		"mesh70/k2/eps0.3":      0xe196518463d499ee,
		"mesh70/k7/eps0":        0xcc343e26a8c259fd,
		"mesh70/k7/eps0.02":     0x9ec65a5fa7cc5712,
		"mesh70/k7/eps0.3":      0x9ec65a5fa7cc5712,
		"mesh70/k32/eps0":       0x5bf29cd723fc0ae5,
		"mesh70/k32/eps0.02":    0xb9c01166d06b5d94,
		"mesh70/k32/eps0.3":     0x8a2c8b906a45d418,
		"rmat6k-dw/k2/eps0":     0x18c9cd6d691ef053,
		"rmat6k-dw/k2/eps0.02":  0x7a01c816ab35c15b,
		"rmat6k-dw/k2/eps0.3":   0x7e5cf3d3128c8a9a,
		"rmat6k-dw/k7/eps0":     0x15da26290a18cc3e,
		"rmat6k-dw/k7/eps0.02":  0x345c7c2520946747,
		"rmat6k-dw/k7/eps0.3":   0xa6f32f5af980a3e7,
		"rmat6k-dw/k32/eps0":    0x1327fb1464a5bbd3,
		"rmat6k-dw/k32/eps0.02": 0x579b87e4a6c15e0b,
		"rmat6k-dw/k32/eps0.3":  0x10254db10abed1b0,
	}
	rmat := gen.RMAT(6000, 40000, .57, .19, .19, 4)
	rmat.UseDegreeWeights()
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"mesh70", gen.Mesh2D(70, 70)}, {"rmat6k-dw", rmat}} {
		snaps, err := Snapshots(tc.g, 5, 9)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int32{2, 7, 32} {
			for _, eps := range []float64{0, 0.02, 0.3} {
				key := fmt.Sprintf("%s/k%d/eps%v", tc.name, k, eps)
				var p *partition.Partitioning
				for _, s := range snaps {
					if p, err = Inject(s, p, k, eps); err != nil {
						t.Fatalf("%s: %v", key, err)
					}
				}
				if got := partition.PackAssign(p.Assign, p.K).Hash64(); got != want[key] {
					t.Errorf("%q: %#016x, want %#016x", key, got, want[key])
				}
			}
		}
	}
}
