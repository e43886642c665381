// Command bspsim runs a distributed graph application (BFS, SSSP, WCC,
// PageRank, or LPA) on the BSP cluster simulator and reports the job
// execution time and communication-volume breakdown — the measurement
// side of the paper's §7.2.
//
// Usage:
//
//	bspsim -in graph.metis -app bfs -cluster pitt -nodes 3 \
//	       -partitioner dg -refine paragon -lambda 1 -sources 15
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"paragon/internal/apps"
	"paragon/internal/aragonlb"
	"paragon/internal/bsp"
	"paragon/internal/graph"
	"paragon/internal/metis"
	"paragon/internal/paragon"
	"paragon/internal/parmetis"
	"paragon/internal/partition"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

func main() {
	in := flag.String("in", "", "input graph (required)")
	format := flag.String("format", "metis", "input format: metis, edgelist, or binary")
	app := flag.String("app", "bfs", "application: bfs, sssp, wcc, pagerank, lpa, kcore, triangles")
	clusterName := flag.String("cluster", "pitt", "cluster model: pitt, gordon, or uma")
	nodes := flag.Int("nodes", 3, "compute nodes")
	partitioner := flag.String("partitioner", "dg", "initial partitioner: hp, dg, ldg, fennel, metis, metis-kway")
	refine := flag.String("refine", "none", "refinement: none, paragon, uniparagon, parmetis, aragonlb")
	lambda := flag.Float64("lambda", 0, "contention degree λ for paragon refinement")
	drp := flag.Int("drp", 8, "paragon degree of parallelism")
	shuffles := flag.Int("shuffles", 8, "paragon shuffle rounds")
	sourceCount := flag.Int("sources", 5, "random sources for bfs/sssp")
	iters := flag.Int("iters", 10, "iterations for pagerank/lpa")
	kcore := flag.Int("k", 3, "k for the kcore app")
	group := flag.Int("group", 8, "message grouping size")
	contention := flag.Float64("contention", 0.3, "simulator memory-contention factor")
	seed := flag.Int64("seed", 42, "seed")
	flag.Parse()

	if *in == "" {
		fatal(fmt.Errorf("-in is required"))
	}
	g, err := graph.ReadFile(*in, *format)
	if err != nil {
		fatal(err)
	}

	cl, err := topology.ClusterByName(*clusterName, *nodes)
	if err != nil {
		fatal(err)
	}
	k := cl.TotalCores()

	var p *partition.Partitioning
	switch *partitioner {
	case "hp":
		p = stream.HP(g, int32(k))
	case "dg":
		p = stream.DG(g, int32(k), stream.DefaultOptions())
	case "ldg":
		p = stream.LDG(g, int32(k), stream.DefaultOptions())
	case "fennel":
		p = stream.Fennel(g, int32(k), stream.DefaultOptions())
	case "metis":
		p = metis.Partition(g, int32(k), metis.Options{Seed: *seed})
	case "metis-kway":
		p = metis.PartitionKWay(g, int32(k), metis.Options{Seed: *seed})
	default:
		fatal(fmt.Errorf("unknown partitioner %q", *partitioner))
	}

	switch *refine {
	case "none":
	case "paragon":
		c, err := cl.PartitionCostMatrix(k, *lambda)
		if err != nil {
			fatal(err)
		}
		nodeOf, _ := cl.NodeOf(k)
		st, err := paragon.Refine(g, p, c, paragon.Config{
			DRP: *drp, Shuffles: *shuffles, Seed: *seed, NodeOf: nodeOf,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("paragon refinement: %d moves, gain %.0f, %s\n", st.Moves, st.Gain, st.RefinementTime.Round(0))
	case "uniparagon":
		st, err := paragon.RefineUniform(g, p, paragon.Config{
			DRP: *drp, Shuffles: *shuffles, Seed: *seed,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("uniparagon refinement: %d moves, %s\n", st.Moves, st.RefinementTime.Round(0))
	case "parmetis":
		p2, err := parmetis.Repartition(g, p, parmetis.Options{Seed: *seed})
		if err != nil {
			fatal(err)
		}
		p = p2
	case "aragonlb":
		c, err := cl.PartitionCostMatrix(k, *lambda)
		if err != nil {
			fatal(err)
		}
		st, err := aragonlb.Repartition(g, p, c, aragonlb.Config{})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("aragonlb: %d rebalance + %d refine moves, shipped %d bytes, %s\n",
			st.RebalanceMoves, st.RefineMoves, st.ShippedVolume, st.Elapsed.Round(0))
	default:
		fatal(fmt.Errorf("unknown refinement %q", *refine))
	}

	engine, err := bsp.NewEngine(g, p, cl, bsp.Options{
		MsgGroupSize: *group, MemoryContention: *contention,
	})
	if err != nil {
		fatal(err)
	}

	rng := rand.New(rand.NewSource(*seed))
	var totalJET float64
	var vol bsp.VolumeBreakdown
	var steps int
	runs := 0
	accumulate := func(res bsp.Result) {
		totalJET += res.JET
		steps += res.Supersteps
		vol.IntraSocket += res.Volume.IntraSocket
		vol.InterSocket += res.Volume.InterSocket
		vol.InterNode += res.Volume.InterNode
		runs++
	}
	switch strings.ToLower(*app) {
	case "bfs", "sssp":
		for i := 0; i < *sourceCount; i++ {
			src := int32(rng.Intn(int(g.NumVertices())))
			var res bsp.Result
			if *app == "bfs" {
				_, res, err = apps.BFS(engine, g, src)
			} else {
				_, res, err = apps.SSSP(engine, g, src)
			}
			if err != nil {
				fatal(err)
			}
			accumulate(res)
		}
	case "wcc":
		_, res, err := apps.WCC(engine, g)
		if err != nil {
			fatal(err)
		}
		accumulate(res)
	case "pagerank":
		_, res, err := apps.PageRank(engine, g, *iters)
		if err != nil {
			fatal(err)
		}
		accumulate(res)
	case "lpa":
		_, res, err := apps.LabelPropagation(engine, g, *iters)
		if err != nil {
			fatal(err)
		}
		accumulate(res)
	case "kcore":
		members, res, err := apps.KCore(engine, g, *kcore)
		if err != nil {
			fatal(err)
		}
		var inCore int64
		for _, m := range members {
			inCore += m
		}
		fmt.Printf("%d-core members: %d of %d vertices\n", *kcore, inCore, g.NumVertices())
		accumulate(res)
	case "triangles":
		total, res, err := apps.TriangleCount(engine, g)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("triangles: %d\n", total)
		accumulate(res)
	default:
		fatal(fmt.Errorf("unknown app %q", *app))
	}

	fmt.Printf("app=%s cluster=%s(%d nodes, %d ranks) partitioner=%s refine=%s\n",
		*app, cl.Name, *nodes, k, *partitioner, *refine)
	fmt.Printf("runs=%d supersteps=%d JET=%.0f (model units)\n", runs, steps, totalJET)
	fmt.Printf("volume KB: intra-socket %d, inter-socket %d, inter-node %d\n",
		vol.IntraSocket/1024, vol.InterSocket/1024, vol.InterNode/1024)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bspsim: %v\n", err)
	os.Exit(1)
}
