package partition_test

import (
	"slices"
	"strings"
	"testing"

	"paragon/internal/gen"
	"paragon/internal/paragon"
	"paragon/internal/partition"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

// TestRefineRefusesOversizedProfile reaches the neighbor profile's size
// refusal through paragon.Refine, under a limit one below what the graph's
// full table needs (headers included: Σ (min(deg, k) + 1)): the call fails
// with the overflow error and leaves the decomposition alone. At exactly
// the need it refines.
func TestRefineRefusesOversizedProfile(t *testing.T) {
	const k = 6
	g := gen.Mesh2D(12, 12)
	var need int64
	for v := int32(0); v < g.NumVertices(); v++ {
		need += int64(min(g.Degree(v), k)) + 1
	}
	c, err := topology.PittCluster(1).PartitionCostMatrix(k, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := stream.HP(g, k)
	before := slices.Clone(p.Assign)

	restore := partition.SetMaxProfileEntries(need - 1)
	_, err = paragon.Refine(g, p, c, paragon.DefaultConfig())
	restore()
	if err == nil || !strings.Contains(err.Error(), "2^31") {
		t.Fatalf("limit %d, need %d: err = %v, want the overflow error", need-1, need, err)
	}
	if !slices.Equal(p.Assign, before) {
		t.Fatal("the refused Refine changed the decomposition")
	}

	defer partition.SetMaxProfileEntries(need)()
	st, err := paragon.Refine(g, p, c, paragon.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if st.Moves == 0 {
		t.Fatal("a hash-partitioned mesh refined with zero moves; the accepted call is vacuous")
	}
}
