package topology

import "fmt"

// Cluster presets matching the paper's two evaluation platforms (Table 3)
// and the illustrative UMA node of Figure 2a.

// PittCluster models the PittMPICluster: nodes with 2 sockets × 10 cores
// (Intel Haswell, 20 cores), NUMA, all attached to a single FDR Infiniband
// switch. The paper used up to 32 such nodes; pass the node count needed.
func PittCluster(nodes int) *Cluster {
	specs := make([]NodeSpec, nodes)
	for i := range specs {
		specs[i] = NodeSpec{Sockets: 2, CoresPerSocket: 10, Arch: NUMA, L2GroupSize: 1}
	}
	c, err := NewCluster("PittMPICluster", specs, FlatSwitch{}, DefaultLatency())
	if err != nil {
		panic(fmt.Sprintf("topology: PittCluster preset invalid: %v", err))
	}
	return c
}

// GordonCluster models the Gordon supercomputer: nodes with 2 sockets × 8
// cores (Intel Sandy Bridge, 16 cores), NUMA, attached to a 4×4×4 3D torus
// of switches with 16 nodes per switch and a comparatively slow (8 Gbps)
// network.
func GordonCluster(nodes int) *Cluster {
	specs := make([]NodeSpec, nodes)
	for i := range specs {
		specs[i] = NodeSpec{Sockets: 2, CoresPerSocket: 8, Arch: NUMA, L2GroupSize: 1}
	}
	c, err := NewCluster("Gordon", specs, Torus3D{X: 4, Y: 4, Z: 4, NodesPerSwitch: 16}, SlowNetworkLatency())
	if err != nil {
		panic(fmt.Sprintf("topology: GordonCluster preset invalid: %v", err))
	}
	return c
}

// UMACluster models a cluster of Figure 2a nodes: 2 sockets × 4 cores with
// L2 caches shared by core pairs, a front-side bus, and a northbridge
// memory controller. Used by the Table 1 reproduction and contention
// tests.
func UMACluster(nodes int) *Cluster {
	specs := make([]NodeSpec, nodes)
	for i := range specs {
		specs[i] = NodeSpec{Sockets: 2, CoresPerSocket: 4, Arch: UMA, L2GroupSize: 2}
	}
	c, err := NewCluster("UMA-FSB", specs, FlatSwitch{}, DefaultLatency())
	if err != nil {
		panic(fmt.Sprintf("topology: UMACluster preset invalid: %v", err))
	}
	return c
}

// ClusterByName returns the preset the command-line tools call name —
// "pitt", "gordon" or "uma" — with the given node count.
func ClusterByName(name string, nodes int) (*Cluster, error) {
	switch name {
	case "pitt":
		return PittCluster(nodes), nil
	case "gordon":
		return GordonCluster(nodes), nil
	case "uma":
		return UMACluster(nodes), nil
	}
	return nil, fmt.Errorf("unknown cluster %q", name)
}

// UniformMatrix returns a k×k matrix with cost 1 between every pair of
// distinct partitions and 0 on the diagonal — the architecture-agnostic
// assumption of classic partitioners and the UNIPARAGON baseline.
func UniformMatrix(k int) [][]float64 {
	m := make([][]float64, k)
	for i := range m {
		m[i] = make([]float64, k)
		for j := range m[i] {
			if i != j {
				m[i][j] = 1
			}
		}
	}
	return m
}

// PaperExampleMatrix returns the 3×3 relative cost matrix of Figure 6:
// c(N1,N2)=1, c(N2,N3)=1, c(N1,N3)=6. It anchors the worked-example tests.
func PaperExampleMatrix() [][]float64 {
	return [][]float64{
		{0, 1, 6},
		{1, 0, 1},
		{6, 1, 0},
	}
}
