package topology

// Contention modelling (§2.2 and §6 of the paper).
//
// MPI intra-node communication is implemented over shared memory, so
// packing too much communication inside a compute node congests the
// memory subsystem. Eq. 12 mitigates this by *penalizing* intra-node
// communication costs:
//
//	c(Pi, Pj) += λ · (s1 + s2)
//
// where λ ∈ [0,1] is the degree of contention, s1 is the maximal
// inter-node network cost, and s2 is the maximal inter-socket cost when
// Pi and Pj share a socket (0 otherwise). λ=0 keeps pure communication
// heterogeneity; λ=1 prioritizes contention avoidance over heterogeneity.

// ApplyContention returns a copy of the cost matrix with the Eq. 12
// penalty applied to every pair of ranks collocated on a compute node.
// The mapping from matrix index to rank is the identity (one partition
// per core), matching CostMatrix.
func (c *Cluster) ApplyContention(matrix [][]float64, lambda float64) [][]float64 {
	if lambda < 0 {
		lambda = 0
	}
	if lambda > 1 {
		lambda = 1
	}
	out := make([][]float64, len(matrix))
	s1 := c.MaxInterNodeCost()
	for i := range matrix {
		out[i] = append([]float64(nil), matrix[i]...)
	}
	if lambda == 0 {
		return out
	}
	for i := 0; i < len(out) && i < c.total; i++ {
		for j := 0; j < len(out[i]) && j < c.total; j++ {
			if i == j {
				continue
			}
			switch c.Class(i, j) {
			case SharedL2, IntraSocket:
				// Same socket: both penalties apply.
				out[i][j] += float64(lambda * (s1 + c.MaxInterSocketCost()))
			case InterSocket:
				// Same node, different sockets: s2 = 0.
				out[i][j] += float64(lambda * s1)
			}
		}
	}
	return out
}

// SharedResource identifies a hardware resource two communicating cores
// may contend for (Table 1 of the paper).
type SharedResource int

const (
	ResSocket SharedResource = iota
	ResLLCSharing
	ResLLCContention
	ResFSBorQPI
	ResMemController
)

func (r SharedResource) String() string {
	switch r {
	case ResSocket:
		return "socket"
	case ResLLCSharing:
		return "LLC (sharing)"
	case ResLLCContention:
		return "LLC (contention)"
	case ResFSBorQPI:
		return "FSB/QPI(HT)"
	case ResMemController:
		return "memory controller"
	default:
		return "unknown"
	}
}

// ContendedResources reproduces Table 1: the set of resources two
// distinct cores contend for when communicating, as a function of the
// node architecture and the cores' placement. The result is empty for
// cores on different nodes (they communicate via RDMA, bypassing the
// memory subsystem per §2.2).
func (c *Cluster) ContendedResources(r1, r2 int) []SharedResource {
	if r1 == r2 {
		return nil
	}
	a, b := c.Loc(r1), c.Loc(r2)
	if a.Node != b.Node {
		return nil
	}
	spec := c.Nodes[a.Node]
	switch spec.Arch {
	case UMA:
		// Figure 2a: FSB and the northbridge memory controller are shared
		// by everything on the node.
		switch {
		case a.Socket == b.Socket && spec.L2GroupSize > 1 && a.L2Group == b.L2Group:
			// G1: same socket, shared L2.
			return []SharedResource{ResSocket, ResLLCSharing, ResLLCContention, ResFSBorQPI, ResMemController}
		case a.Socket == b.Socket:
			// G2: same socket, different L2s.
			return []SharedResource{ResSocket, ResFSBorQPI, ResMemController}
		default:
			// G3: different sockets; only the FSB path is common.
			return []SharedResource{ResMemController}
		}
	default: // NUMA, Figure 2b
		if a.Socket == b.Socket {
			// G1: same socket shares the L3 and that socket's controller.
			return []SharedResource{ResSocket, ResLLCSharing, ResLLCContention, ResMemController}
		}
		// G2: different sockets contend only for the inter-socket link.
		return []SharedResource{ResFSBorQPI}
	}
}
