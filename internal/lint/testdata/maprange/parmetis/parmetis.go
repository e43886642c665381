// Package parmetis re-creates two bugs maprange caught in the tree: the
// diffusion phase's bestUnderloadedNeighbor and the cut-repair phase's
// greedyKWayRefine both picked a destination by ranging over a
// partition-affinity map, so ties resolved in the runtime's randomized
// order. The fix tracks candidates in a first-seen slice. The bodies
// below are the ones before that fix; the graph and partitioning are cut
// down to what they read.
package parmetis

type Graph struct {
	adj, ew [][]int32
	vw      []int32
}

func (g *Graph) NumVertices() int32          { return int32(len(g.adj)) }
func (g *Graph) Neighbors(v int32) []int32   { return g.adj[v] }
func (g *Graph) EdgeWeights(v int32) []int32 { return g.ew[v] }
func (g *Graph) VertexWeight(v int32) int32  { return g.vw[v] }

type Partitioning struct {
	K      int32
	Assign []int32
}

func (p *Partitioning) Weights(g *Graph) []int64 {
	load := make([]int64, p.K)
	for v, pv := range p.Assign {
		load[pv] += int64(g.vw[v])
	}
	return load
}

func bestUnderloadedNeighbor(g *Graph, p *Partitioning, v int32, load []int64, bound int64) int32 {
	w := int64(g.VertexWeight(v))
	best := int32(-1)
	var bestAff int64 = -1
	aff := map[int32]int64{}
	adj := g.Neighbors(v)
	ew := g.EdgeWeights(v)
	for i, u := range adj {
		pu := p.Assign[u]
		if pu != p.Assign[v] {
			aff[pu] += int64(ew[i])
		}
	}
	for pu, a := range aff {
		if load[pu]+w <= bound && a > bestAff {
			best, bestAff = pu, a
		}
	}
	return best
}

// greedyKWayRefine sweeps boundary vertices, moving each to the adjacent
// partition with the highest positive cut gain whenever balance allows.
func greedyKWayRefine(g *Graph, p *Partitioning, bound int64, passes int) {
	load := p.Weights(g)
	for pass := 0; pass < passes; pass++ {
		improved := false
		for v := int32(0); v < g.NumVertices(); v++ {
			pv := p.Assign[v]
			adj := g.Neighbors(v)
			ew := g.EdgeWeights(v)
			var internal int64
			aff := map[int32]int64{}
			for i, u := range adj {
				pu := p.Assign[u]
				if pu == pv {
					internal += int64(ew[i])
				} else {
					aff[pu] += int64(ew[i])
				}
			}
			if len(aff) == 0 {
				continue
			}
			w := int64(g.VertexWeight(v))
			best := int32(-1)
			var bestGain int64
			for pu, a := range aff {
				gain := a - internal
				if gain > bestGain && load[pu]+w <= bound {
					best, bestGain = pu, gain
				}
			}
			if best >= 0 {
				p.Assign[v] = best
				load[pv] -= w
				load[best] += w
				improved = true
			}
		}
		if !improved {
			break
		}
	}
}
