// Package zoltan re-creates a bug maprange caught in the tree:
// zoltan.bestByConnectivity kept its candidate destinations in a set
// and ranged over it, so whenever two destinations had the same move
// delta the runtime's randomized order picked the winner. The fix keeps
// candidates in first-seen neighbour order. The body below is the one
// before that fix; the graph, partitioning and move delta are cut down
// to what it reads.
package zoltan

type Graph struct {
	adj [][]int32
	vw  []int32
}

func (g *Graph) Neighbors(v int32) []int32  { return g.adj[v] }
func (g *Graph) VertexWeight(v int32) int32 { return g.vw[v] }

type Partitioning struct {
	K      int32
	Assign []int32
}

// moveDelta stands in for the hypergraph cut-plus-migration delta of
// moving v to dst; only its being a pure function matters here.
func moveDelta(g *Graph, p *Partitioning, old []int32, v, dst int32, alpha float64) float64 {
	d := 0.0
	for _, u := range g.Neighbors(v) {
		if p.Assign[u] == dst {
			d--
		}
	}
	if old[v] != dst {
		d += alpha
	}
	return d
}

// bestByConnectivity picks the admissible destination with the lowest
// move delta. In spill mode (mustMove) the least-bad admissible
// destination is returned even when the delta is positive; otherwise
// only strictly improving moves qualify.
func bestByConnectivity(g *Graph, p *Partitioning, old *Partitioning, v int32, load []int64, bound int64, alpha float64, mustMove bool) int32 {
	w := int64(g.VertexWeight(v))
	cur := p.Assign[v]
	best := int32(-1)
	bestDelta := 0.0
	// Candidate destinations: partitions adjacent to v, plus (in spill
	// mode) the globally least-loaded partition.
	cands := map[int32]struct{}{}
	for _, u := range g.Neighbors(v) {
		if pu := p.Assign[u]; pu != cur {
			cands[pu] = struct{}{}
		}
	}
	if mustMove {
		least := int32(-1)
		for i := int32(0); i < p.K; i++ {
			if i != cur && (least < 0 || load[i] < load[least]) {
				least = i
			}
		}
		if least >= 0 {
			cands[least] = struct{}{}
		}
	}
	for dst := range cands {
		if load[dst]+w > bound {
			continue
		}
		d := moveDelta(g, p, old.Assign, v, dst, alpha)
		if best < 0 && mustMove {
			best, bestDelta = dst, d
			continue
		}
		if d < bestDelta || (best < 0 && d < 0) {
			best, bestDelta = dst, d
		}
	}
	if !mustMove && bestDelta >= 0 {
		return -1
	}
	return best
}
