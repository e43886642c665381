package dyn_test

import (
	"fmt"

	"paragon/internal/dyn"
	"paragon/internal/gen"
	"paragon/internal/partition"
)

// Example replays a growing graph as snapshots, injecting each new batch
// of vertices into the running decomposition and consulting the trigger
// policy.
func Example() {
	full := gen.RMAT(2000, 8000, 0.57, 0.19, 0.19, 5)
	full.UseDegreeWeights()
	snaps, err := dyn.Snapshots(full, 3, 7)
	if err != nil {
		fmt.Println(err)
		return
	}
	var p *partition.Partitioning
	policy := dyn.DefaultTrigger()
	for i, snap := range snaps {
		p, err = dyn.Inject(snap, p, 8, 0.02)
		if err != nil {
			fmt.Println(err)
			return
		}
		sc := partition.Score{Skewness: partition.Skewness(snap.Graph, p)}
		d := policy.EvaluateScore(sc, 0, snap.Graph.NumEdges(), 0)
		fmt.Printf("S%d: %d vertices, refine=%v\n", i+1, snap.Graph.NumVertices(), d.Refine)
	}
	// Output:
	// S1: 666 vertices, refine=false
	// S2: 1333 vertices, refine=false
	// S3: 2000 vertices, refine=false
}
