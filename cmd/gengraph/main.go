// Command gengraph generates the synthetic datasets of the reproduction
// and writes them in METIS .graph or edge-list format.
//
// Usage:
//
//	gengraph -dataset com-lj -scale 0.5 -format metis -o com-lj.graph
//	gengraph -list
//	gengraph -rmat -n 100000 -m 1000000 -o social.graph
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"paragon/internal/gen"
	"paragon/internal/graph"
)

func main() {
	dataset := flag.String("dataset", "", "named dataset stand-in (see -list)")
	list := flag.Bool("list", false, "list available dataset stand-ins")
	scale := flag.Float64("scale", 1.0, "size multiplier for -dataset")
	rmat := flag.Bool("rmat", false, "generate a raw RMAT graph instead of a named dataset")
	n := flag.Int("n", 100000, "vertices for -rmat")
	m := flag.Int64("m", 1000000, "edges for -rmat")
	seed := flag.Int64("seed", 1, "seed for -rmat")
	shards := flag.Int("shards", 0, "generate -rmat with the sharded parallel generator using this many workers (0 = legacy serial stream)")
	format := flag.String("format", "metis", "output format: metis, edgelist, or binary")
	out := flag.String("o", "", "output file (default stdout)")
	binaryOut := flag.String("binary-out", "", "also write the graph once in binary CSR format to this file (the scale benches reload it instead of regenerating)")
	degreeWeights := flag.Bool("degree-weights", true, "set vertex weights/sizes to vertex degree (the paper's default)")
	stats := flag.Bool("stats", false, "print structural statistics instead of writing the graph")
	flag.Parse()

	if *list {
		fmt.Println("available dataset stand-ins (paper dataset -> structural class):")
		for _, d := range gen.Datasets() {
			fmt.Printf("  %-12s %s\n", d.Name, d.Class)
		}
		return
	}

	// gen panics on a size it cannot build, and int32(*n) would wrap.
	switch {
	case *n < 2 || *n > math.MaxInt32:
		fatal(fmt.Errorf("-n %d out of range [2, %d]", *n, math.MaxInt32))
	case *m < 1:
		fatal(fmt.Errorf("-m %d: need at least 1 edge", *m))
	case *scale <= 0:
		fatal(fmt.Errorf("-scale %g: need a positive multiplier", *scale))
	case *shards < 0:
		fatal(fmt.Errorf("-shards %d: need 0 (serial) or a worker count", *shards))
	}

	var g *graph.Graph
	switch {
	case *rmat && *shards > 0:
		g = gen.RMATSharded(int32(*n), *m, 0.57, 0.19, 0.19, *seed, *shards)
	case *rmat:
		g = gen.RMAT(int32(*n), *m, 0.57, 0.19, 0.19, *seed)
	case *dataset != "":
		d, err := gen.DatasetByName(*dataset)
		if err != nil {
			fatal(err)
		}
		g = d.Build(*scale)
	default:
		fatal(fmt.Errorf("need -dataset, -rmat, or -list (see -h)"))
	}
	if *degreeWeights {
		g.UseDegreeWeights()
	}
	if *stats {
		fmt.Println(graph.ComputeStats(g))
		return
	}

	if *binaryOut != "" {
		f, err := os.Create(*binaryOut)
		if err != nil {
			fatal(err)
		}
		if err := graph.WriteBinary(f, g); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote binary %s: %d vertices, %d edges\n", *binaryOut, g.NumVertices(), g.NumEdges())
		if *out == "" {
			return // binary-only run: don't dump METIS text to stdout too
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	var err error
	switch *format {
	case "metis":
		err = graph.WriteMETIS(w, g)
	case "edgelist":
		err = graph.WriteEdgeList(w, g)
	case "binary":
		err = graph.WriteBinary(w, g)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "gengraph: %v\n", err)
	os.Exit(1)
}
