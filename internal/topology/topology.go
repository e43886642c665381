// Package topology models the hardware of multicore HPC clusters: compute
// nodes (UMA or NUMA, Figure 2 of the paper), sockets, cache-sharing core
// groups, and the interconnect between nodes (flat switch or 3D torus).
// From the model it derives the relative network communication cost matrix
// c(Pi, Pj) that drives every architecture-aware decision in PARAGON, the
// intra-node shared-resource-contention penalty of Eq. 12, and the
// communication classification (intra-socket / inter-socket / inter-node)
// used for the volume breakdowns of Figures 12–13.
//
// The paper measures these costs with an osu_latency variant on real
// clusters; this package substitutes an analytic latency model that
// reproduces the orderings and magnitudes driving the algorithm (shared
// cache < intra-socket < inter-socket < one network hop < many hops).
package topology

import (
	"fmt"
)

// Arch distinguishes the two compute-node architectures of Figure 2.
type Arch int

const (
	// UMA is the front-side-bus architecture of Figure 2a: sockets share
	// one off-chip memory controller, and pairs of cores share an L2.
	UMA Arch = iota
	// NUMA is the architecture of Figure 2b: per-socket memory
	// controllers and an inter-socket link (QPI/HT), per-socket L3.
	NUMA
)

func (a Arch) String() string {
	switch a {
	case UMA:
		return "UMA"
	case NUMA:
		return "NUMA"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// NodeSpec describes one compute node. The paper's refinement explicitly
// allows heterogeneous nodes (ARAGONLB assumed homogeneous ones), so a
// Cluster carries one NodeSpec per node.
type NodeSpec struct {
	Sockets        int  // number of CPU sockets
	CoresPerSocket int  // physical cores per socket
	Arch           Arch // memory architecture
	// L2GroupSize is the number of adjacent cores sharing an L2 cache
	// (Figure 2a's pairs). 1 means private L2 (Figure 2b). Must divide
	// CoresPerSocket.
	L2GroupSize int
}

// Cores returns the number of cores on the node.
func (n NodeSpec) Cores() int { return n.Sockets * n.CoresPerSocket }

// Validate checks the spec for internal consistency.
func (n NodeSpec) Validate() error {
	if n.Sockets < 1 || n.CoresPerSocket < 1 {
		return fmt.Errorf("topology: node needs >=1 socket and core, got %d/%d", n.Sockets, n.CoresPerSocket)
	}
	if n.L2GroupSize < 1 || n.CoresPerSocket%n.L2GroupSize != 0 {
		return fmt.Errorf("topology: L2 group size %d must divide cores per socket %d", n.L2GroupSize, n.CoresPerSocket)
	}
	return nil
}

// Interconnect abstracts the network between compute nodes.
type Interconnect interface {
	// Hops returns the number of switch hops between two nodes. Zero
	// means the nodes hang off the same switch.
	Hops(a, b int) int
	// MaxHops returns the largest possible hop count for the topology.
	MaxHops() int
	// Name identifies the topology for reports.
	Name() string
}

// FlatSwitch is a single-switch (full crossbar) interconnect: every pair
// of distinct nodes is one hop apart, as in the paper's PittMPICluster.
type FlatSwitch struct{}

// Hops implements Interconnect.
func (FlatSwitch) Hops(a, b int) int {
	if a == b {
		return 0
	}
	return 1
}

// MaxHops implements Interconnect.
func (FlatSwitch) MaxHops() int { return 1 }

// Name implements Interconnect.
func (FlatSwitch) Name() string { return "flat switch" }

// Torus3D is an X×Y×Z torus of switches with NodesPerSwitch compute nodes
// attached to each switch, as in the paper's Gordon supercomputer
// (4×4×4, 16 nodes per switch). Node i hangs off switch i/NodesPerSwitch.
type Torus3D struct {
	X, Y, Z        int
	NodesPerSwitch int
}

// Hops implements Interconnect: the Manhattan distance on the torus
// between the switches owning the two nodes (0 when they share a switch).
func (t Torus3D) Hops(a, b int) int {
	sa, sb := a/t.NodesPerSwitch, b/t.NodesPerSwitch
	if sa == sb {
		return 0
	}
	ax, ay, az := t.coords(sa)
	bx, by, bz := t.coords(sb)
	return torusDist(ax, bx, t.X) + torusDist(ay, by, t.Y) + torusDist(az, bz, t.Z)
}

// MaxHops implements Interconnect.
func (t Torus3D) MaxHops() int { return t.X/2 + t.Y/2 + t.Z/2 }

// Name implements Interconnect.
func (t Torus3D) Name() string {
	return fmt.Sprintf("%dx%dx%d 3D torus (%d nodes/switch)", t.X, t.Y, t.Z, t.NodesPerSwitch)
}

func (t Torus3D) coords(s int) (x, y, z int) {
	x = s % t.X
	y = (s / t.X) % t.Y
	z = s / (t.X * t.Y)
	return
}

func torusDist(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return d
}

// LatencyModel holds the relative cost of each communication class. The
// defaults reproduce the qualitative ratios of §2.1: intra-node is an
// order of magnitude cheaper than inter-node, and both are themselves
// non-uniform. Costs are relative (unitless); only ratios matter to the
// refiner, exactly as with the paper's osu_latency-derived matrices.
type LatencyModel struct {
	SharedL2      float64 // cores sharing an L2 cache
	IntraSocket   float64 // same socket, no shared L2 (through L3/FSB)
	InterSocket   float64 // same node, different sockets
	InterNodeBase float64 // nodes on the same switch (0 hops)
	PerHop        float64 // additional cost per switch hop
}

// DefaultLatency returns the model used throughout the reproduction:
// a 56 Gbps-class network where one network hop costs ~10× an
// intra-socket exchange.
func DefaultLatency() LatencyModel {
	return LatencyModel{
		SharedL2:      1,
		IntraSocket:   2,
		InterSocket:   4,
		InterNodeBase: 10,
		PerHop:        5,
	}
}

// SlowNetworkLatency returns a model for an 8 Gbps-class oversubscribed
// torus (the paper's Gordon): network costs dominate more strongly.
func SlowNetworkLatency() LatencyModel {
	return LatencyModel{
		SharedL2:      1,
		IntraSocket:   2,
		InterSocket:   4,
		InterNodeBase: 20,
		PerHop:        10,
	}
}

// CommClass classifies the relationship between two cores; the BSP
// simulator uses it for the Figure 12/13 volume breakdown and Eq. 12 uses
// it to decide where the contention penalty applies.
type CommClass int

const (
	SameCore CommClass = iota
	SharedL2
	IntraSocket
	InterSocket
	InterNode
)

func (c CommClass) String() string {
	switch c {
	case SameCore:
		return "same-core"
	case SharedL2:
		return "shared-L2"
	case IntraSocket:
		return "intra-socket"
	case InterSocket:
		return "inter-socket"
	case InterNode:
		return "inter-node"
	default:
		return fmt.Sprintf("CommClass(%d)", int(c))
	}
}

// CoreLoc locates a global core rank within the cluster.
type CoreLoc struct {
	Node    int // compute node index
	Socket  int // socket within the node
	Core    int // core within the socket
	L2Group int // L2 sharing group within the socket
}

// Cluster is a collection of compute nodes joined by an interconnect,
// with a latency model for deriving relative communication costs. One MPI
// rank is assumed per physical core ("one partition per core", §7).
type Cluster struct {
	Name    string
	Nodes   []NodeSpec
	Net     Interconnect
	Latency LatencyModel

	coreBase []int // prefix sums of cores per node
	total    int
}

// NewCluster builds and validates a cluster.
func NewCluster(name string, nodes []NodeSpec, net Interconnect, lat LatencyModel) (*Cluster, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("topology: cluster %q has no nodes", name)
	}
	if net == nil {
		return nil, fmt.Errorf("topology: cluster %q has no interconnect", name)
	}
	c := &Cluster{Name: name, Nodes: nodes, Net: net, Latency: lat}
	c.coreBase = make([]int, len(nodes)+1)
	for i, n := range nodes {
		if err := n.Validate(); err != nil {
			return nil, fmt.Errorf("topology: cluster %q node %d: %w", name, i, err)
		}
		c.coreBase[i+1] = c.coreBase[i] + n.Cores()
	}
	c.total = c.coreBase[len(nodes)]
	return c, nil
}

// TotalCores returns the number of cores (= ranks) in the cluster.
func (c *Cluster) TotalCores() int { return c.total }

// Loc maps a global core rank to its location. Ranks are laid out node by
// node, socket by socket, matching how MPI ranks are bound in the paper.
func (c *Cluster) Loc(rank int) CoreLoc {
	if rank < 0 || rank >= c.total {
		panic(fmt.Sprintf("topology: rank %d out of range [0,%d)", rank, c.total))
	}
	// Binary search over coreBase.
	lo, hi := 0, len(c.Nodes)
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if c.coreBase[mid] <= rank {
			lo = mid
		} else {
			hi = mid
		}
	}
	node := lo
	within := rank - c.coreBase[node]
	spec := c.Nodes[node]
	socket := within / spec.CoresPerSocket
	core := within % spec.CoresPerSocket
	return CoreLoc{
		Node:    node,
		Socket:  socket,
		Core:    core,
		L2Group: core / spec.L2GroupSize,
	}
}

// Class returns the communication class between two ranks.
func (c *Cluster) Class(r1, r2 int) CommClass {
	if r1 == r2 {
		return SameCore
	}
	a, b := c.Loc(r1), c.Loc(r2)
	if a.Node != b.Node {
		return InterNode
	}
	if a.Socket != b.Socket {
		return InterSocket
	}
	spec := c.Nodes[a.Node]
	if spec.L2GroupSize > 1 && a.L2Group == b.L2Group {
		return SharedL2
	}
	return IntraSocket
}

// Cost returns the relative communication cost between two ranks under
// the cluster's latency model. Cost(r, r) is 0.
func (c *Cluster) Cost(r1, r2 int) float64 {
	switch c.Class(r1, r2) {
	case SameCore:
		return 0
	case SharedL2:
		return c.Latency.SharedL2
	case IntraSocket:
		return c.Latency.IntraSocket
	case InterSocket:
		return c.Latency.InterSocket
	default:
		hops := c.Net.Hops(c.Loc(r1).Node, c.Loc(r2).Node)
		return c.Latency.InterNodeBase + float64(c.Latency.PerHop*float64(hops))
	}
}

// CostMatrix returns the full |ranks|×|ranks| relative cost matrix — the
// c(Pi, Pj) input of the paper under the one-partition-per-core mapping.
func (c *Cluster) CostMatrix() [][]float64 {
	m := make([][]float64, c.total)
	for i := range m {
		m[i] = make([]float64, c.total)
		for j := range m[i] {
			m[i][j] = c.Cost(i, j)
		}
	}
	return m
}

// MaxInterNodeCost returns the paper's s1: the maximal inter-node cost in
// the cluster.
func (c *Cluster) MaxInterNodeCost() float64 {
	maxHops := c.Net.MaxHops()
	return c.Latency.InterNodeBase + float64(c.Latency.PerHop*float64(maxHops))
}

// MaxInterSocketCost returns the paper's s2 basis: the maximal
// inter-socket cost within a node.
func (c *Cluster) MaxInterSocketCost() float64 { return c.Latency.InterSocket }
