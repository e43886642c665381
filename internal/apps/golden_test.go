package apps

import (
	"fmt"
	"math"
	"testing"

	"paragon/internal/bsp"
	"paragon/internal/detrand"
	"paragon/internal/gen"
	"paragon/internal/graph"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

// resultHash folds everything a run reports into one FNV-1a digest:
// the vertex values, the superstep, message and volume counts, and the
// bit patterns of JET and of every per-superstep time and skew.
func resultHash(vals []int64, res bsp.Result) uint64 {
	h := uint64(detrand.FNVOffset64)
	for _, v := range vals {
		h = detrand.FNVFold64(h, uint64(v))
	}
	for _, x := range []int64{int64(res.Supersteps), res.Messages,
		res.Volume.IntraSocket, res.Volume.InterSocket, res.Volume.InterNode} {
		h = detrand.FNVFold64(h, uint64(x))
	}
	h = detrand.FNVFold64(h, math.Float64bits(res.JET))
	for _, f := range res.StepTimes {
		h = detrand.FNVFold64(h, math.Float64bits(f))
	}
	for _, f := range res.StepSkew {
		h = detrand.FNVFold64(h, math.Float64bits(f))
	}
	return h
}

// TestAppGoldens pins every observable output of the four applications
// on two graphs, three clusters (two of them multi-node) and two cost
// model settings, so a change to the simulator's execution or delivery
// must keep values, counts and modeled times bit for bit.
func TestAppGoldens(t *testing.T) {
	want := map[string]uint64{
		"rmat3k/pitt2/default/bfs":        0x90edabaa2a983bf8,
		"rmat3k/pitt2/default/sssp":       0xccac6bc141e58347,
		"rmat3k/pitt2/default/wcc":        0x8aa5e1d5bb943164,
		"rmat3k/pitt2/default/pagerank":   0x0c4602b8c76c44ae,
		"rmat3k/pitt2/g16c06/bfs":         0x4f524780f4a8688c,
		"rmat3k/pitt2/g16c06/sssp":        0x280645cdf06b3992,
		"rmat3k/pitt2/g16c06/wcc":         0x0ad6a9ee221e4baa,
		"rmat3k/pitt2/g16c06/pagerank":    0x5c991898c8ad890d,
		"rmat3k/gordon2/default/bfs":      0x3e1a6734251f734a,
		"rmat3k/gordon2/default/sssp":     0x3bc943c88e3f4641,
		"rmat3k/gordon2/default/wcc":      0x68142dc7a7e23607,
		"rmat3k/gordon2/default/pagerank": 0x46ed0b806d821204,
		"rmat3k/gordon2/g16c06/bfs":       0x2145ee21d73dc981,
		"rmat3k/gordon2/g16c06/sssp":      0xce69353b2aa74672,
		"rmat3k/gordon2/g16c06/wcc":       0xea759b5dc6c6718e,
		"rmat3k/gordon2/g16c06/pagerank":  0x3282715bb318a99b,
		"rmat3k/uma1/default/bfs":         0xba3dc078075da91a,
		"rmat3k/uma1/default/sssp":        0xc79533e8d3327be2,
		"rmat3k/uma1/default/wcc":         0xacfda40f46ad4fb1,
		"rmat3k/uma1/default/pagerank":    0x765bfac228a728e6,
		"rmat3k/uma1/g16c06/bfs":          0xa6055caf05c61e5d,
		"rmat3k/uma1/g16c06/sssp":         0xa288b6a0f9ac012f,
		"rmat3k/uma1/g16c06/wcc":          0x4b6fe1d6707aabcb,
		"rmat3k/uma1/g16c06/pagerank":     0x43208ec0e59ae366,
		"mesh40/pitt2/default/bfs":        0xb4a48f87b56c5808,
		"mesh40/pitt2/default/sssp":       0x80398a3d5af461dc,
		"mesh40/pitt2/default/wcc":        0x880cea0c7b8a5bb4,
		"mesh40/pitt2/default/pagerank":   0x7a6e637715d39f25,
		"mesh40/pitt2/g16c06/bfs":         0x894646d97a780b78,
		"mesh40/pitt2/g16c06/sssp":        0xa5ef10adad7cd415,
		"mesh40/pitt2/g16c06/wcc":         0xa504945c05d9d2f2,
		"mesh40/pitt2/g16c06/pagerank":    0x382fa6657eae047a,
		"mesh40/gordon2/default/bfs":      0x1d3e0239ffa7116d,
		"mesh40/gordon2/default/sssp":     0x56725cc1b33f16cb,
		"mesh40/gordon2/default/wcc":      0x0676cba7f5926f25,
		"mesh40/gordon2/default/pagerank": 0x3e705509eafdef0e,
		"mesh40/gordon2/g16c06/bfs":       0x11c4bbed272a9445,
		"mesh40/gordon2/g16c06/sssp":      0xa721842ae13a1551,
		"mesh40/gordon2/g16c06/wcc":       0x2c511035021dff23,
		"mesh40/gordon2/g16c06/pagerank":  0x801c7caac59844cc,
		"mesh40/uma1/default/bfs":         0x665fc1576eb0e800,
		"mesh40/uma1/default/sssp":        0xb85c3a66f6f500f9,
		"mesh40/uma1/default/wcc":         0x2b7ac0be015cfc56,
		"mesh40/uma1/default/pagerank":    0x2371490bec6f3508,
		"mesh40/uma1/g16c06/bfs":          0x086824d80a10d116,
		"mesh40/uma1/g16c06/sssp":         0x0e6a4f3b2e985757,
		"mesh40/uma1/g16c06/wcc":          0x8754caf1cd796a62,
		"mesh40/uma1/g16c06/pagerank":     0xbd667175db706da3,
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat3k", gen.RMAT(3000, 18000, .57, .19, .19, 9)},
		{"mesh40", gen.Mesh2D(40, 40)},
	}
	clusters := []struct {
		name string
		cl   *topology.Cluster
		k    int32
	}{
		{"pitt2", topology.PittCluster(2), 30},
		{"gordon2", topology.GordonCluster(2), 24},
		{"uma1", topology.UMACluster(1), 8},
	}
	options := []struct {
		name string
		o    bsp.Options
	}{
		{"default", bsp.Options{}},
		{"g16c06", bsp.Options{MsgGroupSize: 16, MemoryContention: 0.6}},
	}
	apps := []struct {
		name string
		run  func(*bsp.Engine, *graph.Graph) ([]int64, bsp.Result, error)
	}{
		{"bfs", func(e *bsp.Engine, g *graph.Graph) ([]int64, bsp.Result, error) { return BFS(e, g, 0) }},
		{"sssp", func(e *bsp.Engine, g *graph.Graph) ([]int64, bsp.Result, error) { return SSSP(e, g, 1) }},
		{"wcc", WCC},
		{"pagerank", func(e *bsp.Engine, g *graph.Graph) ([]int64, bsp.Result, error) { return PageRank(e, g, 5) }},
	}
	for _, gc := range graphs {
		for _, cc := range clusters {
			p := stream.DG(gc.g, cc.k, stream.DefaultOptions())
			for _, oc := range options {
				e, err := bsp.NewEngine(gc.g, p, cc.cl, oc.o)
				if err != nil {
					t.Fatal(err)
				}
				for _, ac := range apps {
					key := fmt.Sprintf("%s/%s/%s/%s", gc.name, cc.name, oc.name, ac.name)
					vals, res, err := ac.run(e, gc.g)
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					if got := resultHash(vals, res); got != want[key] {
						t.Errorf("%q: %#016x, want %#016x", key, got, want[key])
					}
				}
			}
		}
	}
}
