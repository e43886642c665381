// Command gengraph generates the synthetic datasets of the reproduction
// and writes them in METIS .graph, edge-list or binary CSR format.
//
// Usage:
//
//	gengraph -dataset com-lj -scale 0.5 -format metis -o com-lj.graph
//	gengraph -list
//	gengraph -rmat -n 100000 -m 1000000 -o social.graph
//	gengraph -rmat -n 100000 -m 1000000 -format binary -o social.bin
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"paragon/internal/gen"
	"paragon/internal/graph"
)

// writers maps each -format value to its writer.
var writers = map[string]func(io.Writer, *graph.Graph) error{
	"metis":    graph.WriteMETIS,
	"edgelist": graph.WriteEdgeList,
	"binary":   graph.WriteBinary,
}

func main() {
	dataset := flag.String("dataset", "", "named dataset stand-in (see -list)")
	list := flag.Bool("list", false, "list available dataset stand-ins")
	scale := flag.Float64("scale", 1.0, "size multiplier for -dataset")
	rmat := flag.Bool("rmat", false, "generate a raw RMAT graph instead of a named dataset")
	n := flag.Int("n", 100000, "vertices for -rmat")
	m := flag.Int64("m", 1000000, "edges for -rmat")
	seed := flag.Int64("seed", 1, "seed for -rmat")
	format := flag.String("format", "metis", "output format: metis, edgelist, or binary")
	out := flag.String("o", "", "output file (default stdout)")
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

	// gen panics on a size it cannot build, and int32(*n) would wrap. An
	// unknown format is refused before anything is generated or created.
	write, known := writers[*format]
	switch {
	case *n < 2 || *n > math.MaxInt32:
		fatal(fmt.Errorf("-n %d out of range [2, %d]", *n, math.MaxInt32))
	case *m < 1:
		fatal(fmt.Errorf("-m %d: need at least 1 edge", *m))
	case *scale <= 0:
		fatal(fmt.Errorf("-scale %g: need a positive multiplier", *scale))
	case !known:
		fatal(fmt.Errorf("unknown format %q", *format))
	}

	var g *graph.Graph
	switch {
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

	var err error
	if *out == "" {
		err = write(os.Stdout, g)
	} else {
		err = writeFile(*out, g, write)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
}

// writeFile writes g to path, reporting a failed Close as an error.
func writeFile(path string, g *graph.Graph, write func(io.Writer, *graph.Graph) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "gengraph: %v\n", err)
	os.Exit(1)
}
