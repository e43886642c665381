package bench

import (
	"fmt"

	"paragon/internal/dyn"
	"paragon/internal/gen"
	"paragon/internal/graph"
	"paragon/internal/metis"
	"paragon/internal/paragon"
	"paragon/internal/partition"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

// The four workload names are normative: BENCHMARK.json, the README and
// later issues cite them. Each stresses a different layer (see README).
const (
	wlRMAT      = "rmat100k_dg_k128"
	wlMesh      = "mesh1m_metis_k32"
	wlPortfolio = "portfolio_hp_k64"
	wlChurn     = "churn_rmat200k_k32"
)

// refineWorkload describes one of the three batch-refinement workloads:
// how to build its input from a seed and which call refines it.
type refineWorkload struct {
	name string
	k    int32
	// gen builds the graph; partName is the package whose partitioner
	// part calls ("stream" or "metis"), naming its set-up metric.
	gen      func(seed int64) *graph.Graph
	partName string
	part     func(g *graph.Graph, seed int64) *partition.Partitioning
	// cluster is the modelled machine: it yields the cost matrix (at
	// λ = 1) and NodeOf, and hosts the simulated BFS. uniform workloads
	// refine against topology.UniformMatrix instead and use cluster only
	// for the BFS.
	cluster func() *topology.Cluster
	uniform bool
	config  func() paragon.Config
	// portfolio routes the call through portfolio.RefineWithPool.
	portfolio bool
	// bfs gates the simulated-application probe (the mesh's 2000
	// supersteps cost ~9 s per run, so it is excluded there).
	bfs bool
}

// churnWorkload describes the streaming-session workload.
type churnWorkload struct {
	n, k    int32
	m       int64
	batches int
	load    dyn.WorkloadConfig
	lookups int
}

func rmatDegree(n int32, m int64) func(int64) *graph.Graph {
	return func(seed int64) *graph.Graph {
		g := gen.RMAT(n, m, 0.57, 0.19, 0.19, seed)
		g.UseDegreeWeights()
		return g
	}
}

// refineWorkloads returns the refine workloads at the given scale. The
// tiny scale keeps every code path and shrinks only the sizes, so the
// tests can run all of them in seconds.
func refineWorkloads(scale string) []refineWorkload {
	tiny := scale == "tiny"
	pick := func(full, small int) int {
		if tiny {
			return small
		}
		return full
	}
	meshSide := int32(pick(1000, 80))
	rmat := refineWorkload{
		name: wlRMAT, k: int32(pick(128, 16)),
		gen:      rmatDegree(int32(pick(100000, 3000)), int64(pick(800000, 24000))),
		partName: "stream",
		cluster:  func() *topology.Cluster { return topology.PittCluster(pick(7, 1)) },
		config:   paragon.DefaultConfig,
		bfs:      true,
	}
	rmat.part = func(g *graph.Graph, _ int64) *partition.Partitioning {
		return stream.DG(g, rmat.k, stream.DefaultOptions())
	}
	mesh := refineWorkload{
		name: wlMesh, k: int32(pick(32, 8)),
		gen:      func(int64) *graph.Graph { return gen.Mesh2D(meshSide, meshSide) },
		partName: "metis",
		cluster:  func() *topology.Cluster { return topology.GordonCluster(pick(2, 1)) },
		config:   paragon.DefaultConfig,
	}
	mesh.part = func(g *graph.Graph, seed int64) *partition.Partitioning {
		return metis.Partition(g, mesh.k, metis.Options{Seed: seed})
	}
	port := refineWorkload{
		name: wlPortfolio, k: int32(pick(64, 8)),
		gen:      rmatDegree(int32(pick(50000, 2000)), int64(pick(300000, 12000))),
		partName: "stream",
		cluster:  func() *topology.Cluster { return topology.UMACluster(pick(8, 1)) },
		uniform:  true,
		config: func() paragon.Config {
			cfg := paragon.DefaultConfig()
			cfg.Shuffles = 2
			cfg.Portfolio.Size = 4
			return cfg
		},
		portfolio: true,
		bfs:       true,
	}
	port.part = func(g *graph.Graph, _ int64) *partition.Partitioning { return stream.HP(g, port.k) }
	return []refineWorkload{rmat, mesh, port}
}

func churnAt(scale string) churnWorkload {
	if scale == "tiny" {
		return churnWorkload{n: 4000, m: 24000, k: 8, batches: 60, lookups: 50000,
			load: dyn.WorkloadConfig{Adds: 200, Removes: 80, Arrivals: 4, ArrivalDegree: 3}}
	}
	return churnWorkload{n: 200000, m: 1200000, k: 32, batches: 600, lookups: 5000000,
		load: dyn.WorkloadConfig{Adds: 2000, Removes: 800, Arrivals: 40, ArrivalDegree: 3}}
}

// runWorkload runs one pass of the named workload in this process.
func runWorkload(spec *Spec, opt Options) (*Result, *Tracer, error) {
	r := newRec(spec, opt, opt.Workload)
	if opt.Workload == wlChurn {
		runChurn(r, churnAt(opt.Scale))
		return r.finish(), r.tr, nil
	}
	for _, w := range refineWorkloads(opt.Scale) {
		if w.name == opt.Workload {
			runRefine(r, w)
			return r.finish(), r.tr, nil
		}
	}
	return nil, nil, fmt.Errorf("unknown workload %q", opt.Workload)
}
