// Package verify re-creates a bug maprange caught in the tree:
// migrate.Verify walked each store's vertex map and returned on the
// first violation, so when a store held several bad vertices the error
// named whichever one the runtime visited first. The fix walks each
// store's vertices in sorted order. The body below is the one before
// that fix; the graph, partitioning and stores are cut down to what it
// reads.
package verify

import "fmt"

type Graph struct{ n int32 }

func (g *Graph) NumVertices() int32 { return g.n }

type Partitioning struct{ Assign []int32 }

type VertexData struct{ Adj []int32 }

type Store struct {
	Rank     int32
	Vertices map[int32]*VertexData
}

// Verify checks that the stores exactly realize the decomposition now:
// every vertex present in precisely the store of its partition.
func Verify(stores []*Store, g *Graph, now *Partitioning) error {
	seen := make([]bool, g.NumVertices())
	for _, st := range stores {
		for v := range st.Vertices {
			if v < 0 || v >= g.NumVertices() {
				return fmt.Errorf("migrate: store %d holds out-of-range vertex %d", st.Rank, v)
			}
			if seen[v] {
				return fmt.Errorf("migrate: vertex %d present in multiple stores", v)
			}
			seen[v] = true
			if now.Assign[v] != st.Rank {
				return fmt.Errorf("migrate: vertex %d in store %d, should be %d", v, st.Rank, now.Assign[v])
			}
		}
	}
	for v, ok := range seen {
		if !ok {
			return fmt.Errorf("migrate: vertex %d lost", v)
		}
	}
	return nil
}
