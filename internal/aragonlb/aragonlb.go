// Package aragonlb implements ARAGONLB, the authors' prior
// architecture-aware graph repartitioner (BigGraphs'14) that PARAGON
// supersedes. ARAGONLB couples a load-balancing phase with the serial
// ARAGON refinement, executed the way the paper describes its limits:
//
//   - all servers send their partitions to a single refinement server,
//     so the entire graph crosses the network once and must fit in one
//     server's memory (tracked in Stats.ShippedVolume);
//   - the refinement itself runs sequentially over all n(n−1)/2 pairs;
//   - shared-resource contention is NOT considered: the cost matrix is
//     used as-is, and callers should not apply the Eq. 12 penalty when
//     reproducing ARAGONLB's behavior.
//
// The package exists as a baseline: PARAGON reaches the same or better
// decompositions with a fraction of the single-server footprint.
package aragonlb

import (
	"fmt"
	"time"

	"paragon/internal/aragon"
	"paragon/internal/graph"
	"paragon/internal/partition"
)

// Config tunes ARAGONLB: the ARAGON settings and paper defaults, shared by
// the balancing phase (MaxImbalance) and the refinement phase.
type Config = aragon.Config

// Stats reports one repartitioning.
type Stats struct {
	RebalanceMoves int     // vertices moved by the balancing phase
	RefineMoves    int     // vertices moved by ARAGON
	Gain           float64 // refinement gain
	ShippedVolume  int64   // bytes shipped to the refinement server (whole graph, once)
	Elapsed        time.Duration
}

// Repartition rebalances and then refines the decomposition p of g in
// place against the relative cost matrix c.
func Repartition(g *graph.Graph, p *partition.Partitioning, c [][]float64, cfg Config) (Stats, error) {
	start := time.Now()
	if err := p.Validate(g); err != nil {
		return Stats{}, fmt.Errorf("aragonlb: %w", err)
	}
	cs, err := partition.CheckCosts(c, p.K)
	if err != nil {
		return Stats{}, fmt.Errorf("aragonlb: %w", err)
	}
	cfg = cfg.WithDefaults()
	if err := partition.CheckObjective(g, cs, cfg.Alpha); err != nil {
		return Stats{}, fmt.Errorf("aragonlb: %w", err)
	}
	var st Stats

	// The single-server model: every partition's vertices and edge lists
	// travel to the refinement server once (12 bytes per half-edge, 12
	// per vertex record), minus the server's own partition. We charge
	// the worst case (server holds nothing) for a conservative account.
	st.ShippedVolume = int64(g.NumVertices())*12 + g.NumHalfEdges()*12

	// Phase 1: architecture-aware load balancing. Move vertices out of
	// overloaded partitions into the underloaded partition that
	// minimizes the communication-cost increase of the move.
	st.RebalanceMoves = rebalance(g, p, c, cfg)

	// Phase 2: serial ARAGON over all pairs.
	res, err := aragon.Refine(g, p, c, cfg)
	if err != nil {
		return st, fmt.Errorf("aragonlb: %w", err)
	}
	st.RefineMoves = res.Moves
	st.Gain = cs.Real(res.Gain)
	st.Elapsed = time.Since(start)
	return st, nil
}

// rebalance drains overloaded partitions. For every vertex leaving an
// overloaded partition it chooses the underloaded destination d
// maximizing the architecture-aware affinity Σ_k d_ext(v,Pk)·(−c(d,Pk)),
// i.e. placing v as close (in cost) to its neighbors as balance allows.
func rebalance(g *graph.Graph, p *partition.Partitioning, c [][]float64, cfg Config) int {
	k := p.K
	bound := partition.BalanceBound(g, k, cfg.MaxImbalance)
	load := p.Weights(g)
	moves := 0
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
			dst := bestDestination(g, p, c, v, load, bound)
			if dst < 0 {
				continue
			}
			w := int64(g.VertexWeight(v))
			p.Assign[v] = dst
			load[src] -= w
			load[dst] += w
			moves++
			progressed = true
		}
		if !progressed {
			break // nothing admissible; leave residual imbalance
		}
	}
	return moves
}

// bestDestination returns the admissible destination with minimal
// communication cost for v's neighborhood, or -1 if none fits.
func bestDestination(g *graph.Graph, p *partition.Partitioning, c [][]float64, v int32, load []int64, bound int64) int32 {
	dext := partition.ExternalDegrees(g, p, v)
	w := int64(g.VertexWeight(v))
	best := int32(-1)
	bestCost := 0.0
	for d := int32(0); d < p.K; d++ {
		if d == p.Assign[v] || load[d]+w > bound {
			continue
		}
		var cost float64
		for kk := int32(0); kk < p.K; kk++ {
			if dext[kk] != 0 && kk != d {
				cost += float64(dext[kk]) * c[d][kk]
			}
		}
		if best < 0 || cost < bestCost {
			best, bestCost = d, cost
		}
	}
	return best
}
