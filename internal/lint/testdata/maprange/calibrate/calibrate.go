// Package calibrate re-creates a bug maprange caught in the tree:
// topology.CalibrateLatency fitted its inter-node latency line by
// draining the per-hop buckets in map order, so the least-squares sums
// (and the single-bucket branch's assignment) depended on the runtime's
// iteration order and the fitted model differed in its last bits from
// run to run. The fix drains the buckets in sorted hop order. The body
// below is the one before that fix, without the final normalisation; the
// cluster is cut down to what it reads.
package calibrate

import "fmt"

type CommClass int

const (
	SharedL2 CommClass = iota
	IntraSocket
	InterSocket
	InterNode
)

type Location struct{ Node, Socket int }

type Network struct{ Width int }

// Hops is the node-to-node hop count on a line of switches.
func (n Network) Hops(a, b int) int {
	if a > b {
		a, b = b, a
	}
	return (b - a + n.Width - 1) / n.Width
}

type Cluster struct {
	Net                    Network
	Nodes, SocketsPerNode  int
	CoresPerSocket, L2Pair int
}

func (c *Cluster) TotalCores() int { return c.Nodes * c.SocketsPerNode * c.CoresPerSocket }

func (c *Cluster) Loc(rank int) Location {
	perNode := c.SocketsPerNode * c.CoresPerSocket
	return Location{Node: rank / perNode, Socket: rank % perNode / c.CoresPerSocket}
}

func (c *Cluster) Class(a, b int) CommClass {
	la, lb := c.Loc(a), c.Loc(b)
	switch {
	case la.Node != lb.Node:
		return InterNode
	case la.Socket != lb.Socket:
		return InterSocket
	case a/c.L2Pair == b/c.L2Pair:
		return SharedL2
	}
	return IntraSocket
}

type LatencyModel struct {
	SharedL2, IntraSocket, InterSocket float64
	InterNodeBase, PerHop              float64
}

func DefaultLatency() LatencyModel {
	return LatencyModel{SharedL2: 1, IntraSocket: 2, InterSocket: 4, InterNodeBase: 16, PerHop: 2}
}

// LatencySample is one measured point-to-point latency between two
// ranks (cores), in any consistent unit.
type LatencySample struct {
	RankA, RankB int
	Latency      float64
}

// CalibrateLatency fits a LatencyModel from samples measured on a
// cluster of the given shape. The inter-node term is fit as base +
// perHop·hops by averaging per hop count.
func CalibrateLatency(c *Cluster, samples []LatencySample) (LatencyModel, error) {
	sums := map[CommClass]float64{}
	counts := map[CommClass]int{}
	hopSums := map[int]float64{}
	hopCounts := map[int]int{}
	for _, s := range samples {
		if s.RankA == s.RankB || s.RankA < 0 || s.RankB < 0 ||
			s.RankA >= c.TotalCores() || s.RankB >= c.TotalCores() || s.Latency <= 0 {
			continue
		}
		cl := c.Class(s.RankA, s.RankB)
		sums[cl] += s.Latency
		counts[cl]++
		if cl == InterNode {
			h := c.Net.Hops(c.Loc(s.RankA).Node, c.Loc(s.RankB).Node)
			hopSums[h] += s.Latency
			hopCounts[h]++
		}
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return LatencyModel{}, fmt.Errorf("topology: no usable latency samples")
	}
	def := DefaultLatency()
	avg := func(cl CommClass, fallback float64) float64 {
		if counts[cl] > 0 {
			return sums[cl] / float64(counts[cl])
		}
		return -fallback // negative marks "unmeasured"; resolved after scaling
	}
	m := LatencyModel{
		SharedL2:    avg(SharedL2, def.SharedL2),
		IntraSocket: avg(IntraSocket, def.IntraSocket),
		InterSocket: avg(InterSocket, def.InterSocket),
	}
	// Inter-node: fit base + perHop·hops from per-hop averages.
	switch len(hopCounts) {
	case 0:
		m.InterNodeBase = -def.InterNodeBase
		m.PerHop = -def.PerHop
	case 1:
		for h, n := range hopCounts {
			mean := hopSums[h] / float64(n)
			m.InterNodeBase = mean
			m.PerHop = 0
			_ = h
		}
	default:
		// Least-squares over (hops, mean latency).
		var sx, sy, sxx, sxy float64
		var k int
		for h, n := range hopCounts {
			x := float64(h)
			y := hopSums[h] / float64(n)
			sx += x
			sy += y
			sxx += x * x
			sxy += x * y
			k++
		}
		fk := float64(k)
		den := fk*sxx - sx*sx
		if den == 0 {
			m.InterNodeBase = sy / fk
			m.PerHop = 0
		} else {
			m.PerHop = (fk*sxy - sx*sy) / den
			m.InterNodeBase = (sy - m.PerHop*sx) / fk
			if m.PerHop < 0 {
				m.PerHop = 0
				m.InterNodeBase = sy / fk
			}
		}
	}
	return m, nil
}
