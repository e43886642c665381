// Package partition defines the n-way decomposition model of the paper's
// §3 problem statement and its quality metrics: communication cost
// (Eq. 2), migration cost (Eq. 3), skewness (Eq. 4), edge-cut, and the
// partition statistics (boundary vertices, external degrees, per-partition
// loads) consumed by the streaming partitioners and the refiners.
package partition

import (
	"fmt"

	"paragon/internal/graph"
)

// Partitioning assigns every vertex of a graph to one of K partitions.
// Partition i is mapped to server M[i]; with the paper's default
// one-partition-per-core mapping, M is the identity and the cost matrix is
// indexed directly by partition id.
type Partitioning struct {
	K      int32
	Assign []int32 // vertex -> partition in [0, K)
}

// New returns a partitioning of n vertices into k partitions with all
// vertices initially in partition 0.
func New(k, n int32) *Partitioning {
	if k < 1 {
		panic(fmt.Sprintf("partition: k = %d must be positive", k))
	}
	return &Partitioning{K: k, Assign: make([]int32, n)}
}

// Clone returns a deep copy.
func (p *Partitioning) Clone() *Partitioning {
	return &Partitioning{K: p.K, Assign: append([]int32(nil), p.Assign...)}
}

// Move reassigns vertex v to partition to.
func (p *Partitioning) Move(v, to int32) {
	if to < 0 || to >= p.K {
		panic(fmt.Sprintf("partition: move to %d out of range [0,%d)", to, p.K))
	}
	p.Assign[v] = to
}

// Validate checks that the partitioning covers exactly the vertices of g
// and that every assignment is in range.
func (p *Partitioning) Validate(g *graph.Graph) error {
	if int32(len(p.Assign)) != g.NumVertices() {
		return fmt.Errorf("partition: %d assignments for %d vertices", len(p.Assign), g.NumVertices())
	}
	for v, part := range p.Assign {
		if part < 0 || part >= p.K {
			return fmt.Errorf("partition: vertex %d assigned to %d outside [0,%d)", v, part, p.K)
		}
	}
	return nil
}

// Weights returns w(Pi) for every partition: the sum of vertex weights,
// i.e. the computational load (Eq. 4's numerator inputs).
func (p *Partitioning) Weights(g *graph.Graph) []int64 {
	w := make([]int64, p.K)
	for v := int32(0); v < g.NumVertices(); v++ {
		w[p.Assign[v]] += int64(g.VertexWeight(v))
	}
	return w
}

// Counts returns the number of vertices per partition.
func (p *Partitioning) Counts(g *graph.Graph) []int64 {
	c := make([]int64, p.K)
	for v := int32(0); v < g.NumVertices(); v++ {
		c[p.Assign[v]]++
	}
	return c
}

// IncidentEdges returns ps[i] of Eq. 10: the number of half-edges incident
// to vertices of each partition — the paper's approximation of the data
// volume each server ships to its group server.
func (p *Partitioning) IncidentEdges(g *graph.Graph) []int64 {
	e := make([]int64, p.K)
	for v := int32(0); v < g.NumVertices(); v++ {
		e[p.Assign[v]] += int64(g.Degree(v))
	}
	return e
}

// EdgeCut returns the total weight of edges whose endpoints lie in
// different partitions (each undirected edge counted once).
func EdgeCut(g *graph.Graph, p *Partitioning) int64 {
	var cut int64
	for v := int32(0); v < g.NumVertices(); v++ {
		pv := p.Assign[v]
		adj := g.Neighbors(v)
		w := g.EdgeWeights(v)
		for i, u := range adj {
			if v < u && p.Assign[u] != pv {
				cut += int64(w[i])
			}
		}
	}
	return cut
}

// CommCost computes Eq. 2: α · Σ_{cut edges} w(e) · c(Pi, Pj). The cost
// matrix c must be at least K×K; with a uniform matrix this reduces to
// α·EdgeCut.
func CommCost(g *graph.Graph, p *Partitioning, c [][]float64, alpha float64) float64 {
	return ComputeScore(g, p, nil, c, alpha).CommCost
}

// HopCut computes the hop-weighted edge cut of §2.1's take-away: the
// total of w(e)·hops(Pi, Pj) over cut edges, where hops gives the
// topology distance between the servers of two partitions. It isolates
// the network-distance component that architecture-agnostic partitioners
// ignore (their objective is EdgeCut = HopCut with hops ≡ 1).
func HopCut(g *graph.Graph, p *Partitioning, hops func(i, j int32) int) int64 {
	var total int64
	for v := int32(0); v < g.NumVertices(); v++ {
		pv := p.Assign[v]
		adj := g.Neighbors(v)
		w := g.EdgeWeights(v)
		for i, u := range adj {
			if v < u {
				if pu := p.Assign[u]; pu != pv {
					total += int64(w[i]) * int64(hops(pv, pu))
				}
			}
		}
	}
	return total
}

// MigrationCost computes Eq. 3: Σ_{v moved} vs(v) · c(P_old, P_new) — the
// cost of physically migrating every vertex whose owner changed between
// the old and new decompositions.
func MigrationCost(g *graph.Graph, old, now *Partitioning, c [][]float64) float64 {
	return ComputeScore(g, now, old.Assign, c, 0).MigrationCost
}

// Skewness computes Eq. 4: max w(Pi) / (Σ w(Pi) / n). A perfectly
// balanced decomposition has skewness 1.
func Skewness(g *graph.Graph, p *Partitioning) float64 { return SkewnessOf(p.Weights(g)) }

// SkewnessOf is Eq. 4 over the per-partition weights w: the one division
// at the end of the integer sums, and 1 when every weight is zero.
func SkewnessOf(w []int64) float64 {
	var sum, max int64
	for _, wi := range w {
		sum += wi
		if wi > max {
			max = wi
		}
	}
	if sum == 0 {
		return 1
	}
	return float64(max) / (float64(sum) / float64(len(w)))
}

// ExternalDegrees returns d_ext(v, Pk) of Eq. 7 for a single vertex: the
// total edge weight v communicates with each partition. The returned
// slice has length K; entry p.Assign[v] holds v's internal degree.
func ExternalDegrees(g *graph.Graph, p *Partitioning, v int32) []int64 {
	d := make([]int64, p.K)
	adj := g.Neighbors(v)
	w := g.EdgeWeights(v)
	for i, u := range adj {
		d[p.Assign[u]] += int64(w[i])
	}
	return d
}

// IsBoundary reports whether v has at least one neighbor outside its own
// partition.
func IsBoundary(g *graph.Graph, p *Partitioning, v int32) bool {
	pv := p.Assign[v]
	for _, u := range g.Neighbors(v) {
		if p.Assign[u] != pv {
			return true
		}
	}
	return false
}

// BalanceBound returns the maximum allowed partition weight for a given
// imbalance tolerance eps (the paper permits eps = 0.02, i.e. 2%).
func BalanceBound(g *graph.Graph, k int32, eps float64) int64 {
	return LoadBound(g.TotalVertexWeight(), k, eps)
}

// LoadBound is BalanceBound for a total weight, ⌊(1+eps)·⌈total/k⌉⌋, which
// the streaming session grows with its arrivals. It saturates at 2^62, so
// twice the bound fits an int64.
func LoadBound(total int64, k int32, eps float64) int64 {
	avg := (total + int64(k) - 1) / int64(k)
	return int64(min(float64(avg)*(1+eps), 1<<62))
}

// Quality bundles the §3 metrics for reporting.
type Quality struct {
	EdgeCut  int64
	CommCost float64
	Skewness float64
}

// Evaluate computes all quality metrics in one sweep via the shared
// scorer.
func Evaluate(g *graph.Graph, p *Partitioning, c [][]float64, alpha float64) Quality {
	s := ComputeScore(g, p, nil, c, alpha)
	return Quality{
		EdgeCut:  s.EdgeCut,
		CommCost: s.CommCost,
		Skewness: s.Skewness,
	}
}
