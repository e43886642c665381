package metis

import (
	"fmt"
	"math/rand"

	"paragon/internal/graph"
	"paragon/internal/partition"
)

// Options configures the multilevel partitioner.
type Options struct {
	// Eps is the imbalance tolerance of each bisection (default 0.02, the
	// paper's 2%): FM never moves a vertex onto a side that would then
	// weigh more than (1+Eps) times its target share, and k-way
	// refinement never moves one above partition.BalanceBound. It is not
	// a bound on the output. The greedy-growing start can overshoot it by
	// one coarse vertex, FM only refuses overloading moves and never
	// rebalances, and recursive bisection compounds the excess over its
	// levels. DESIGN.md §3 lists measured output skews.
	Eps float64
	// Seed drives matching and initial-bisection randomness.
	Seed int64
}

const (
	coarsenTo    = 100 // coarsest-graph size per bisection
	initTries    = 4   // greedy-growing attempts per bisection
	refinePasses = 4   // FM (or k-way) refinement passes per level
)

func (o Options) withDefaults() Options {
	if o.Eps == 0 {
		o.Eps = 0.02
	}
	return o
}

// Partition computes a k-way decomposition of g by recursive multilevel
// bisection, honoring vertex weights with imbalance tolerance opt.Eps.
func Partition(g *graph.Graph, k int32, opt Options) *partition.Partitioning {
	if k < 1 {
		panic(fmt.Sprintf("metis: k = %d", k))
	}
	opt = opt.withDefaults()
	p := partition.New(k, g.NumVertices())
	if k == 1 || g.NumVertices() == 0 {
		return p
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	verts := make([]int32, g.NumVertices())
	for i := range verts {
		verts[i] = int32(i)
	}
	recursiveBisect(g, verts, 0, k, p, opt, rng)
	return p
}

// recursiveBisect splits the induced subgraph on verts into partitions
// [lo, lo+k) of p.
func recursiveBisect(g *graph.Graph, verts []int32, lo, k int32, p *partition.Partitioning, opt Options, rng *rand.Rand) {
	if k == 1 {
		for _, v := range verts {
			p.Assign[v] = lo
		}
		return
	}
	k0 := k / 2
	k1 := k - k0
	target0 := float64(k0) / float64(k)
	sub, orig := graph.Induced(g, verts)
	side := multilevelBisect(sub, target0, opt, rng)
	var verts0, verts1 []int32
	for i, s := range side {
		if s == 0 {
			verts0 = append(verts0, orig[i])
		} else {
			verts1 = append(verts1, orig[i])
		}
	}
	recursiveBisect(g, verts0, lo, k0, p, opt, rng)
	recursiveBisect(g, verts1, lo+k0, k1, p, opt, rng)
}

// multilevelBisect coarsens, bisects the coarsest graph, and projects the
// split back while FM-refining at every level.
func multilevelBisect(g *graph.Graph, target0 float64, opt Options, rng *rand.Rand) []int8 {
	levels := coarsen(g, coarsenTo, rng)
	coarsest := levels[len(levels)-1].g
	side := initialBisection(coarsest, target0, rng, initTries)
	total := g.TotalVertexWeight()
	maxW := [2]int64{
		int64(float64(total) * target0 * (1 + opt.Eps)),
		int64(float64(total) * (1 - target0) * (1 + opt.Eps)),
	}
	// Weight is conserved by contraction, so the same bounds apply at
	// every level. A fine vertex can be boundary only if its coarse vertex
	// is, so each level's boundary superset is projected from the one
	// below; the coarsest level starts from every vertex.
	bnd := partition.NewBitset(coarsest.NumVertices())
	for v := int32(0); v < coarsest.NumVertices(); v++ {
		bnd.Set(v)
	}
	fmRefine(coarsest, side, bnd, maxW, refinePasses)
	for li := len(levels) - 1; li >= 1; li-- {
		fine := levels[li-1].g
		cmap := levels[li].map_
		fineSide := make([]int8, fine.NumVertices())
		fineBnd := partition.NewBitset(fine.NumVertices())
		for v, cv := range cmap {
			fineSide[v] = side[cv]
			if bnd.Get(cv) {
				fineBnd.Set(int32(v))
			}
		}
		side, bnd = fineSide, fineBnd
		fmRefine(fine, side, bnd, maxW, refinePasses)
	}
	return side
}
