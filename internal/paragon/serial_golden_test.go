package paragon

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"paragon/internal/aragon"
	"paragon/internal/gen"
	"paragon/internal/graph"
	"paragon/internal/metis"
	"paragon/internal/partition"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

// serialGolden is what one serial ARAGON sweep must produce: the hash of
// the refined assignment and the sweep's Result.
type serialGolden struct {
	hash  uint64
	moves int
	gain  int64
	pairs int
}

func (w serialGolden) String() string {
	return fmt.Sprintf("{%#x, %d, %d, %d}", w.hash, w.moves, w.gain, w.pairs)
}

// nonDyadicMatrix is a symmetric non-uniform cost matrix whose entries are
// not dyadic, so the objective grid rounds them and g_topo sums unequal
// terms.
func nonDyadicMatrix(k int) [][]float64 {
	c := make([][]float64, k)
	for i := range c {
		c[i] = make([]float64, k)
		for j := range c[i] {
			if i != j {
				c[i][j] = 1 + float64((i+j)%5) + float64((i*j)%7)/3
			}
		}
	}
	return c
}

// serialGoldenInputs are the serial goldens' decompositions: a
// degree-weighted power-law graph under DG and a METIS mesh.
func serialGoldenInputs() []struct {
	name string
	g    *graph.Graph
	part func(k int32) *partition.Partitioning
} {
	rmat := gen.RMAT(3000, 20000, 0.57, 0.19, 0.19, 17)
	rmat.UseDegreeWeights()
	mesh := gen.Mesh2D(40, 40)
	return []struct {
		name string
		g    *graph.Graph
		part func(k int32) *partition.Partitioning
	}{
		{"rmat/dg", rmat, func(k int32) *partition.Partitioning { return stream.DG(rmat, k, stream.DefaultOptions()) }},
		{"mesh/metis", mesh, func(k int32) *partition.Partitioning { return metis.Partition(mesh, k, metis.Options{Seed: 42}) }},
	}
}

// serialGoldenMatrices are the serial goldens' cost matrices for k
// partitions: uniform, the paper's cluster with partition i on core
// 11·i mod 40 of two nodes (so even k = 2 spans sockets), and a
// non-dyadic one.
func serialGoldenMatrices(k int32) []struct {
	name string
	c    [][]float64
} {
	cl := topology.PittCluster(2)
	pitt := make([][]float64, k)
	for i := range pitt {
		pitt[i] = make([]float64, k)
		for j := range pitt[i] {
			pitt[i][j] = cl.Cost(i*11%cl.TotalCores(), j*11%cl.TotalCores())
		}
	}
	return []struct {
		name string
		c    [][]float64
	}{
		{"uniform", topology.UniformMatrix(int(k))},
		{"pitt", pitt},
		{"nondyadic", nonDyadicMatrix(int(k))},
	}
}

// TestGoldenRefineSerial pins serial ARAGON's output — the refined
// assignment's hash and the Result — on both inputs under all three
// matrices at k = 1, 2, 7 and 16, at GOMAXPROCS 1, 3 and the process's.
// The production entry point and the bare-Index reference loop must both
// reproduce every pin. The drifted case starts from an assignment that
// differs from its migration reference (orig ≠ Assign); only the
// reference takes an explicit orig, so it alone is pinned there.
func TestGoldenRefineSerial(t *testing.T) {
	want := map[string]serialGolden{
		"rmat/dg/uniform/k=1":       {0x1dfeaf773f5ebca5, 0, 0, 0},
		"rmat/dg/pitt/k=1":          {0x1dfeaf773f5ebca5, 0, 0, 0},
		"rmat/dg/nondyadic/k=1":     {0x1dfeaf773f5ebca5, 0, 0, 0},
		"rmat/dg/uniform/k=2":       {0x15a7479eb30b8b4, 289, 268368347136, 1},
		"rmat/dg/pitt/k=2":          {0x15a7479eb30b8b4, 289, 268368347136, 1},
		"rmat/dg/nondyadic/k=2":     {0x15a7479eb30b8b4, 289, 268368347136, 1},
		"rmat/dg/uniform/k=7":       {0x261ae34af3db9e5, 501, 288165462016, 21},
		"rmat/dg/pitt/k=7":          {0x829cbee1d7836a01, 1074, 3434027679744, 21},
		"rmat/dg/nondyadic/k=7":     {0x42fef85687e01ec2, 847, 1874693128192, 21},
		"rmat/dg/uniform/k=16":      {0x85a1002c8750b2ff, 421, 230518947840, 120},
		"rmat/dg/pitt/k=16":         {0xca0c306cd400b068, 785, 1619538214912, 120},
		"rmat/dg/nondyadic/k=16":    {0x703a38b8058f3199, 1058, 1543761821696, 120},
		"mesh/metis/uniform/k=1":    {0x7501636cb8119725, 0, 0, 0},
		"mesh/metis/pitt/k=1":       {0x7501636cb8119725, 0, 0, 0},
		"mesh/metis/nondyadic/k=1":  {0x7501636cb8119725, 0, 0, 0},
		"mesh/metis/uniform/k=2":    {0xfff09de02ce5c2f5, 0, 0, 1},
		"mesh/metis/pitt/k=2":       {0xfff09de02ce5c2f5, 0, 0, 1},
		"mesh/metis/nondyadic/k=2":  {0xfff09de02ce5c2f5, 0, 0, 1},
		"mesh/metis/uniform/k=7":    {0xd077330a0bee3f01, 14, 402653184, 21},
		"mesh/metis/pitt/k=7":       {0x432371b2e0379132, 40, 52512686080, 21},
		"mesh/metis/nondyadic/k=7":  {0x1f9b1ac0b2e0b952, 49, 56158912512, 21},
		"mesh/metis/uniform/k=16":   {0xc1162a1e01895185, 30, 8120172544, 120},
		"mesh/metis/pitt/k=16":      {0xd0679f28407b9b6c, 53, 69055021056, 120},
		"mesh/metis/nondyadic/k=16": {0x10e49d020fca82e1, 93, 134629425152, 120},
		"rmat/dg/pitt/k=7/drifted":  {0xbd2c761aa09705c5, 1061, 3842217345024, 21},
	}
	check := func(t *testing.T, what string, w serialGolden, p *partition.Partitioning, res aragon.Result) {
		t.Helper()
		got := serialGolden{assignHash(p), res.Moves, res.Gain, res.PairsSeen}
		if got != w {
			t.Errorf("%s: got %v, want %v", what, got, w)
		}
	}
	procs := []int{runtime.GOMAXPROCS(0), 1, 3}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	seen := 0
	for _, in := range serialGoldenInputs() {
		for _, k := range []int32{1, 2, 7, 16} {
			p0 := in.part(k)
			for _, mc := range serialGoldenMatrices(k) {
				name := fmt.Sprintf("%s/%s/k=%d", in.name, mc.name, k)
				w, ok := want[name]
				if !ok {
					t.Fatalf("%s: no pin", name)
				}
				seen++
				for _, n := range procs {
					runtime.GOMAXPROCS(n)
					p := p0.Clone()
					res, err := refineSerialUnderTest(in.g, p, mc.c, aragon.Config{})
					if err != nil {
						t.Fatal(err)
					}
					check(t, fmt.Sprintf("%s GOMAXPROCS=%d", name, n), w, p, res)
					p = p0.Clone()
					res, _ = serialReference(in.g, p, slices.Clone(p.Assign), quantised(t, mc.c), aragon.Config{})
					check(t, fmt.Sprintf("%s reference GOMAXPROCS=%d", name, n), w, p, res)
				}
			}
		}
	}
	in := serialGoldenInputs()[0]
	const k = 7
	p, orig := driftedInput(in.g, in.part(k))
	name := in.name + "/pitt/k=7/drifted"
	res, _ := serialReference(in.g, p, orig, quantised(t, serialGoldenMatrices(k)[1].c), aragon.Config{})
	check(t, name+" reference", want[name], p, res)
	if seen+1 != len(want) {
		t.Fatalf("%d cases ran, %d are pinned", seen+1, len(want))
	}
}

// driftedInput returns p0's assignment as the migration reference and a
// copy of p0 with one vertex in fifteen moved to a seeded random
// partition: a decomposition refinement starts from with orig ≠ Assign.
func driftedInput(g *graph.Graph, p0 *partition.Partitioning) (*partition.Partitioning, []int32) {
	orig := slices.Clone(p0.Assign)
	p := p0.Clone()
	rng := rand.New(rand.NewSource(5))
	for i := int32(0); i < g.NumVertices()/15; i++ {
		p.Assign[rng.Int31n(g.NumVertices())] = rng.Int31n(p.K)
	}
	return p, orig
}
