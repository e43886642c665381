// Package metis re-creates a bug maprange caught in the tree:
// metis.kwayRefine picked each vertex's destination by ranging over its
// partition-affinity map, so a tie went to whichever partition the
// runtime yielded first and the seeded k-way refinement changed from run
// to run. The fix tracks candidates in a first-seen slice. The body
// below is the one before that fix; the graph and partitioning are cut
// down to what it reads.
package metis

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

// kwayRefine sweeps boundary vertices, moving each to the adjacent
// partition with the highest positive cut gain while balance allows.
func kwayRefine(g *Graph, p *Partitioning, bound int64, passes int) {
	load := p.Weights(g)
	aff := make(map[int32]int64, 8)
	for pass := 0; pass < passes; pass++ {
		improved := false
		for v := int32(0); v < g.NumVertices(); v++ {
			pv := p.Assign[v]
			adj := g.Neighbors(v)
			ew := g.EdgeWeights(v)
			var internal int64
			for key := range aff {
				delete(aff, key)
			}
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
