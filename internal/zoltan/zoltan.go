// Package zoltan implements a Zoltan-style hypergraph repartitioner —
// the remaining named baseline of the paper's Figure 1 and Table 6
// (Catalyurek et al., "A repartitioning hypergraph model for dynamic
// load balancing", JPDC 2009).
//
// The model: each vertex v of the graph induces a net (hyperedge)
// containing v and its neighbors; the communication metric is
// connectivity-1 — Σ_net w(net)·(λ(net) − 1), where λ(net) is the number
// of partitions the net touches — which, unlike edge cut, counts each
// remote partition once per net and therefore models message aggregation.
// Repartitioning adds one migration net per vertex binding it to its old
// owner, weighted by vertex size and scaled by 1/α, so the optimizer
// trades communication against migration exactly like Eq. 2/Eq. 3.
//
// Like the original (and unlike PARAGON), the repartitioner is
// architecture-agnostic: all partitions are equidistant.
package zoltan

import (
	"fmt"
	"time"

	"paragon/internal/graph"
	"paragon/internal/partition"
)

// Options tunes Repartition.
type Options struct {
	// Eps is the imbalance tolerance (default 0.02).
	Eps float64
	// Alpha is the communication/migration weight of Eq. 2 (default 10):
	// migration nets weigh vs(v)/Alpha against communication nets.
	Alpha float64
}

// passes bounds the greedy refinement sweeps.
const passes = 4

func (o Options) withDefaults() Options {
	if o.Eps == 0 {
		o.Eps = 0.02
	}
	if o.Alpha == 0 {
		o.Alpha = 10
	}
	return o
}

// Stats reports one repartitioning.
type Stats struct {
	Moves              int
	ConnectivityBefore float64
	ConnectivityAfter  float64
	Elapsed            time.Duration
}

// ConnectivityCut computes the connectivity-1 metric of a decomposition
// under the vertex-net model: for each vertex v's net {v} ∪ N(v), the
// number of distinct partitions beyond the first, weighted by the net
// weight (1, the paper's uniform edge weights; weighted edges contribute
// via the max edge weight of the net, a common approximation).
func ConnectivityCut(g *graph.Graph, p *partition.Partitioning) float64 {
	var total float64
	seen := make(map[int32]struct{}, 8)
	for v := int32(0); v < g.NumVertices(); v++ {
		for k := range seen {
			delete(seen, k)
		}
		seen[p.Assign[v]] = struct{}{}
		var maxW int32 = 1
		adj := g.Neighbors(v)
		ws := g.EdgeWeights(v)
		for i, u := range adj {
			seen[p.Assign[u]] = struct{}{}
			if ws[i] > maxW {
				maxW = ws[i]
			}
		}
		total += float64(maxW) * float64(len(seen)-1)
	}
	return total
}

// Repartition adapts the decomposition old of g, minimizing
// connectivity-1 plus migration while restoring balance. It returns the
// new decomposition and statistics.
func Repartition(g *graph.Graph, old *partition.Partitioning, opt Options) (*partition.Partitioning, Stats, error) {
	start := time.Now()
	if err := old.Validate(g); err != nil {
		return nil, Stats{}, fmt.Errorf("zoltan: %w", err)
	}
	opt = opt.withDefaults()
	p := old.Clone()
	st := Stats{ConnectivityBefore: ConnectivityCut(g, p)}
	k := p.K
	bound := partition.BalanceBound(g, k, opt.Eps)
	load := p.Weights(g)

	// Phase 1: restore balance (spill overloaded partitions toward the
	// least connectivity-increasing admissible destination).
	for iter := 0; iter < int(k)*2; iter++ {
		src := int32(-1)
		for i := int32(0); i < k; i++ {
			if load[i] > bound && (src < 0 || load[i] > load[src]) {
				src = i
			}
		}
		if src < 0 {
			break
		}
		progressed := false
		for v := int32(0); v < g.NumVertices() && load[src] > bound; v++ {
			if p.Assign[v] != src {
				continue
			}
			dst := bestByConnectivity(g, p, old, v, load, bound, opt.Alpha, true)
			if dst < 0 {
				continue
			}
			applyMove(g, p, v, dst, load)
			st.Moves++
			progressed = true
		}
		if !progressed {
			break
		}
	}

	// Phase 2: greedy connectivity refinement sweeps over boundary
	// vertices, accepting strictly improving moves within balance.
	for pass := 0; pass < passes; pass++ {
		improved := false
		for v := int32(0); v < g.NumVertices(); v++ {
			if !partition.IsBoundary(g, p, v) {
				continue
			}
			cur := p.Assign[v]
			dst := bestByConnectivity(g, p, old, v, load, bound, opt.Alpha, false)
			if dst >= 0 && dst != cur {
				applyMove(g, p, v, dst, load)
				st.Moves++
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	st.ConnectivityAfter = ConnectivityCut(g, p)
	st.Elapsed = time.Since(start)
	return p, st, nil
}

// moveDelta computes the change in (connectivity-1 + migration/α) if v
// moves from its current partition to dst: the affected nets are v's own
// net and each neighbor's net.
func moveDelta(g *graph.Graph, p *partition.Partitioning, old []int32, v, dst int32, alpha float64) float64 {
	cur := p.Assign[v]
	if cur == dst {
		return 0
	}
	delta := netLambdaDelta(g, p, v, v, dst)
	for _, u := range g.Neighbors(v) {
		delta += netLambdaDelta(g, p, u, v, dst)
	}
	// Migration net: binds v to its original owner with weight vs(v)/α.
	mig := float64(g.VertexSize(v)) / alpha
	if old[v] == cur && old[v] != dst {
		delta += mig // leaving home cuts the migration net
	} else if old[v] == dst && old[v] != cur {
		delta -= mig // returning home heals it
	}
	return delta
}

// netLambdaDelta returns the λ change of the net centered at c when v
// moves to dst.
func netLambdaDelta(g *graph.Graph, p *partition.Partitioning, c, v, dst int32) float64 {
	cur := p.Assign[v]
	// Count members of net(c) in cur and dst, excluding v.
	var inCur, inDst int
	count := func(u int32) {
		if u == v {
			return
		}
		switch p.Assign[u] {
		case cur:
			inCur++
		case dst:
			inDst++
		}
	}
	count(c)
	for _, u := range g.Neighbors(c) {
		count(u)
	}
	var delta float64
	if inCur == 0 {
		delta-- // v was the last net member in cur
	}
	if inDst == 0 {
		delta++ // v opens dst for this net
	}
	return delta
}

// bestByConnectivity picks the admissible destination with the lowest
// move delta. In spill mode (mustMove) the least-bad admissible
// destination is returned even when the delta is positive; otherwise
// only strictly improving moves qualify.
func bestByConnectivity(g *graph.Graph, p *partition.Partitioning, old *partition.Partitioning, v int32, load []int64, bound int64, alpha float64, mustMove bool) int32 {
	w := int64(g.VertexWeight(v))
	cur := p.Assign[v]
	best := int32(-1)
	bestDelta := 0.0
	// Candidate destinations: partitions adjacent to v, plus (in spill
	// mode) the globally least-loaded partition. Candidates are kept in
	// first-seen neighbor order — iterating a map here would let the
	// runtime's randomized order break delta ties differently every run.
	seen := map[int32]struct{}{}
	var cands []int32
	for _, u := range g.Neighbors(v) {
		if pu := p.Assign[u]; pu != cur {
			if _, dup := seen[pu]; !dup {
				seen[pu] = struct{}{}
				cands = append(cands, pu)
			}
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
			if _, dup := seen[least]; !dup {
				cands = append(cands, least)
			}
		}
	}
	for _, dst := range cands {
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

func applyMove(g *graph.Graph, p *partition.Partitioning, v, dst int32, load []int64) {
	w := int64(g.VertexWeight(v))
	load[p.Assign[v]] -= w
	load[dst] += w
	p.Assign[v] = dst
}
