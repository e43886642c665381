// Package bsp is a Pregel-style bulk-synchronous execution simulator for
// distributed graph computations on a modeled multicore cluster — the
// reproduction's substitute for the paper's MPI testbeds (§7.2).
//
// A run places partition i of the decomposition on rank (core) i of a
// topology.Cluster, executes a vertex program superstep by superstep —
// ranks in order on the calling goroutine, each message combined into
// its destination's inbox for the next superstep — and *models* time: each
// rank's superstep time is a compute term (vertices processed + edges
// scanned) plus communication terms derived from the cluster's relative
// cost matrix, with message grouping (the paper groups 8–16 messages per
// destination rank) and an intra-node memory-subsystem contention charge
// (§2.2: shared-memory MPI transfers pollute caches and queue on the
// memory bus, while inter-node RDMA bypasses both).
//
// The job execution time follows the paper's definition exactly:
// JET = Σ_i SET(i), where SET(i) is the i-th superstep time of the
// slowest rank. The simulator also accumulates the communication-volume
// breakdown (intra-socket / inter-socket / inter-node) of Figures 12–13.
// Because time is modeled, not measured, running the ranks one after
// another changes nothing a run reports.
package bsp

import (
	"fmt"
	"math"

	"paragon/internal/graph"
	"paragon/internal/partition"
	"paragon/internal/topology"
)

// Program is a vertex program in Pregel form. Values and messages are
// int64 (fixed-point for fractional algorithms like PageRank).
type Program struct {
	// Init returns the initial value of v and whether v starts active.
	Init func(v int32) (value int64, active bool)
	// Compute processes v given its current value and the combined
	// message sent to it last superstep (ok is false, and msg 0, if none
	// was); it may send messages via send and returns the new value plus
	// whether v stays active without messages.
	Compute func(v int32, value, msg int64, ok bool, send func(to int32, m int64)) (int64, bool)
	// Combine merges two messages bound for the same vertex (min for
	// BFS, SSSP and WCC, + for PageRank). Messages to a vertex fold in
	// send order, so Combine must be associative.
	Combine func(a, b int64) int64
}

// Options tunes the cost model.
type Options struct {
	// MsgGroupSize is the number of messages to the same destination
	// rank coalesced into one transfer (the paper's "message grouping",
	// 8–16 in §7.2). Default 8.
	MsgGroupSize int
	// MemoryContention ∈ [0,1] is the fraction of *other* ranks'
	// intra-node transfer time that delays a rank on the same node
	// (shared memory bus and cache pollution, §2.2). Inter-node RDMA
	// traffic is exempt. Default 0.3; ~0.6 matches the paper's
	// PittMPICluster (intra-node bound), ~0.1 its Gordon (network
	// bound).
	MemoryContention float64
}

// The model's compute time units per processed vertex and per scanned
// edge, in the same relative units as the topology latency model.
const (
	computePerVertex = 0.02
	computePerEdge   = 0.002
)

// maxSupersteps aborts runaway programs. Tests lower it.
var maxSupersteps = 100000

func (o Options) withDefaults() Options {
	if o.MsgGroupSize <= 0 {
		o.MsgGroupSize = 8
	}
	if o.MemoryContention == 0 {
		o.MemoryContention = 0.3
	}
	if o.MemoryContention < 0 {
		o.MemoryContention = 0
	}
	if o.MemoryContention > 1 {
		o.MemoryContention = 1
	}
	return o
}

// VolumeBreakdown accumulates exchanged bytes by communication class —
// the Figure 12/13 series. Same-rank (local) traffic is excluded, as in
// the paper's "remotely exchanged" accounting.
type VolumeBreakdown struct {
	IntraSocket int64 // includes shared-L2 pairs
	InterSocket int64
	InterNode   int64
}

// Result of a run.
type Result struct {
	Values     []int64 // final vertex values
	Supersteps int
	JET        float64 // Σ per-superstep max-rank time (paper §7.2)
	Volume     VolumeBreakdown
	Messages   int64 // total remote messages
	StepTimes  []float64
	// StepSkew is, per superstep, the slowest rank's time divided by the
	// mean rank time — the load-balance signal driving Eq. 4's skewness
	// objective (1.0 = perfectly balanced superstep).
	StepSkew []float64
}

// Engine binds a graph, a decomposition, and a cluster.
type Engine struct {
	g    *graph.Graph
	p    *partition.Partitioning
	cl   *topology.Cluster
	opts Options

	ranks     int
	rankVerts [][]int32 // vertices per rank
	cost      [][]float64
	class     [][]topology.CommClass
	node      []int
}

// NewEngine validates the placement (partition i on core i) and
// precomputes rank metadata.
func NewEngine(g *graph.Graph, p *partition.Partitioning, cl *topology.Cluster, opts Options) (*Engine, error) {
	if err := p.Validate(g); err != nil {
		return nil, fmt.Errorf("bsp: %w", err)
	}
	if int(p.K) > cl.TotalCores() {
		return nil, fmt.Errorf("bsp: %d partitions exceed %d cores of %s", p.K, cl.TotalCores(), cl.Name)
	}
	e := &Engine{g: g, p: p, cl: cl, opts: opts.withDefaults(), ranks: int(p.K)}
	e.rankVerts = make([][]int32, e.ranks)
	for v := int32(0); v < g.NumVertices(); v++ {
		r := p.Assign[v]
		e.rankVerts[r] = append(e.rankVerts[r], v)
	}
	e.cost = make([][]float64, e.ranks)
	e.class = make([][]topology.CommClass, e.ranks)
	e.node = make([]int, e.ranks)
	for i := 0; i < e.ranks; i++ {
		e.cost[i] = make([]float64, e.ranks)
		e.class[i] = make([]topology.CommClass, e.ranks)
		e.node[i] = cl.Loc(i).Node
		for j := 0; j < e.ranks; j++ {
			e.cost[i][j] = cl.Cost(i, j)
			e.class[i][j] = cl.Class(i, j)
		}
	}
	return e, nil
}

// bytesPerMessage models an 8-byte payload plus a 4-byte vertex id.
const bytesPerMessage = 12

// inbox holds at most one combined message per vertex: msg[v] where
// has[v], 0 elsewhere. n counts the vertices that have one.
type inbox struct {
	msg []int64
	has []bool
	n   int
}

// Run executes the program to completion and returns the result.
func (e *Engine) Run(prog Program) (Result, error) {
	if prog.Init == nil || prog.Compute == nil || prog.Combine == nil {
		return Result{}, fmt.Errorf("bsp: program needs Init, Compute and Combine")
	}
	n := e.g.NumVertices()
	values := make([]int64, n)
	active := make([]bool, n)
	anyActive := false
	for v := int32(0); v < n; v++ {
		val, act := prog.Init(v)
		values[v] = val
		active[v] = act
		anyActive = anyActive || act
	}
	// cur is read this superstep; sends fold into next, and the two swap
	// at the barrier.
	cur := inbox{msg: make([]int64, n), has: make([]bool, n)}
	next := inbox{msg: make([]int64, n), has: make([]bool, n)}
	msgs := make([]int64, e.ranks*e.ranks) // messages by (source, destination) rank
	computed := make([]int64, e.ranks)     // vertices processed per rank
	r := 0                                 // the rank being run
	send := func(to int32, m int64) {
		msgs[r*e.ranks+int(e.p.Assign[to])]++
		if next.has[to] {
			next.msg[to] = prog.Combine(next.msg[to], m)
		} else {
			next.msg[to], next.has[to] = m, true
			next.n++
		}
	}

	var res Result
	for anyActive || cur.n > 0 {
		if res.Supersteps >= maxSupersteps {
			return res, fmt.Errorf("bsp: exceeded %d supersteps", maxSupersteps)
		}
		clear(msgs)
		clear(computed)
		anyActive = false
		err := func() (err error) {
			defer func() {
				// A panicking vertex program must not take down the
				// whole simulation (mirrors an MPI rank aborting).
				if p := recover(); p != nil {
					err = fmt.Errorf("bsp: rank %d panicked in superstep %d: %v", r, res.Supersteps, p)
				}
			}()
			// Ranks run in order, each over its vertices ascending. A
			// vertex is visited once per superstep, so its active flag
			// and inbox slot are read and then rewritten in place.
			for r = 0; r < e.ranks; r++ {
				for _, v := range e.rankVerts[r] {
					msg, ok := cur.msg[v], cur.has[v]
					if !active[v] && !ok {
						continue
					}
					cur.msg[v], cur.has[v] = 0, false
					values[v], active[v] = prog.Compute(v, values[v], msg, ok, send)
					anyActive = anyActive || active[v]
					computed[r]++
				}
			}
			return nil
		}()
		if err != nil {
			return res, err
		}

		// Timing and volume (deterministic rank-order reduction).
		stepTime := e.accountStep(msgs, computed, &res)
		res.StepTimes = append(res.StepTimes, stepTime)
		res.JET += stepTime
		res.Supersteps++

		cur, next = next, cur
		next.n = 0
	}
	res.Values = values
	return res, nil
}

// accountStep converts one superstep's per-rank counts — msgs by
// (source, destination) rank and vertices computed — into model time and
// volume, returning SET = max over ranks of per-rank time.
func (e *Engine) accountStep(msgs, computed []int64, res *Result) float64 {
	group := float64(e.opts.MsgGroupSize)
	// Per-rank send/recv transfer times split by locality.
	sendIntra := make([]float64, e.ranks) // shared-memory transfers (same node)
	sendInter := make([]float64, e.ranks) // RDMA transfers (cross node)
	recvIntra := make([]float64, e.ranks)
	recvInter := make([]float64, e.ranks)
	compute := make([]float64, e.ranks)

	for r := 0; r < e.ranks; r++ {
		row := msgs[r*e.ranks : (r+1)*e.ranks]
		var scanned int64 // every send scans one edge, local ones too
		for _, m := range row {
			scanned += m
		}
		compute[r] = computePerVertex*float64(computed[r]) + computePerEdge*float64(scanned)
		for dst, m := range row {
			if m == 0 || dst == r {
				continue // local messages are free and unreported
			}
			batches := math.Ceil(float64(m) / group)
			t := batches * e.cost[r][dst]
			switch e.class[r][dst] {
			case topology.InterNode:
				sendInter[r] += t
				recvInter[dst] += t
				res.Volume.InterNode += m * bytesPerMessage
			case topology.InterSocket:
				sendIntra[r] += t
				recvIntra[dst] += t
				res.Volume.InterSocket += m * bytesPerMessage
			default: // intra-socket or shared-L2
				sendIntra[r] += t
				recvIntra[dst] += t
				res.Volume.IntraSocket += m * bytesPerMessage
			}
			res.Messages += m
		}
	}
	// Intra-node contention (§2.2): a rank is also delayed by a fraction
	// of the other intra-node (shared-memory) transfer time on its node.
	nodeIntra := make([]float64, len(e.cl.Nodes))
	for r := 0; r < e.ranks; r++ {
		nodeIntra[e.node[r]] += sendIntra[r] + recvIntra[r]
	}
	var worst, sum float64
	for r := 0; r < e.ranks; r++ {
		own := sendIntra[r] + recvIntra[r]
		contention := e.opts.MemoryContention * (nodeIntra[e.node[r]] - own)
		t := compute[r] + own + contention + sendInter[r] + recvInter[r]
		sum += t
		if t > worst {
			worst = t
		}
	}
	skew := 1.0
	if sum > 0 {
		skew = worst / (sum / float64(e.ranks))
	}
	res.StepSkew = append(res.StepSkew, skew)
	return worst
}
