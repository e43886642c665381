// Package bsp is a Pregel-style bulk-synchronous execution simulator for
// distributed graph computations on a modeled multicore cluster — the
// reproduction's substitute for the paper's MPI testbeds (§7.2).
//
// A run places partition i of the decomposition on rank (core) i of a
// topology.Cluster, executes a vertex program superstep by superstep with
// real message passing between rank goroutines, and *models* time: each
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
package bsp

import (
	"fmt"
	"math"
	"sync"

	"paragon/internal/graph"
	"paragon/internal/partition"
	"paragon/internal/topology"
)

// Program is a vertex program in Pregel form. Values and messages are
// int64 (fixed-point for fractional algorithms like PageRank).
type Program struct {
	// Init returns the initial value of v and whether v starts active.
	Init func(v int32) (value int64, active bool)
	// Compute processes v given its current value and (combined)
	// incoming messages; it may send messages via send and returns the
	// new value plus whether v stays active without messages.
	Compute func(v int32, value int64, msgs []int64, send func(to int32, m int64)) (int64, bool)
	// Combine optionally merges two messages bound for the same vertex
	// (e.g. min for BFS/SSSP). Nil delivers all messages individually.
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

// rankOutcome is what one rank goroutine produces per superstep.
type rankOutcome struct {
	outbox   []map[int32]int64 // per destination rank: combined messages per vertex
	outMulti []map[int32][]int64
	msgs     []int64 // message count per destination rank
	computed int64   // vertices processed
	scanned  int64   // edges scanned (sends attempted)
	active   []int32 // vertices voting to stay active
	panicked interface{}
}

// Run executes the program to completion and returns the result.
func (e *Engine) Run(prog Program) (Result, error) {
	if prog.Init == nil || prog.Compute == nil {
		return Result{}, fmt.Errorf("bsp: program needs Init and Compute")
	}
	n := e.g.NumVertices()
	values := make([]int64, n)
	activeNow := make([]bool, n)
	anyActive := false
	for v := int32(0); v < n; v++ {
		val, act := prog.Init(v)
		values[v] = val
		activeNow[v] = act
		anyActive = anyActive || act
	}
	// inbox[v] holds the combined (or listed) messages for v this step.
	inboxC := make(map[int32]int64)   // combined
	inboxM := make(map[int32][]int64) // uncombined
	combined := prog.Combine != nil

	var res Result
	for anyActive || len(inboxC) > 0 || len(inboxM) > 0 {
		if res.Supersteps >= maxSupersteps {
			return res, fmt.Errorf("bsp: exceeded %d supersteps", maxSupersteps)
		}
		outcomes := make([]rankOutcome, e.ranks)
		var wg sync.WaitGroup
		for r := 0; r < e.ranks; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				defer func() {
					// A panicking vertex program must not take down the
					// whole simulation (mirrors an MPI rank aborting):
					// surface it as an error after the barrier.
					if p := recover(); p != nil {
						outcomes[r].panicked = p
					}
				}()
				outcomes[r] = e.runRank(r, prog, values, activeNow, inboxC, inboxM, combined)
			}(r)
		}
		wg.Wait()
		for r := 0; r < e.ranks; r++ {
			if p := outcomes[r].panicked; p != nil {
				return res, fmt.Errorf("bsp: rank %d panicked in superstep %d: %v", r, res.Supersteps, p)
			}
		}

		// Timing and volume (deterministic rank-order reduction).
		stepTime := e.accountStep(outcomes, &res)
		res.StepTimes = append(res.StepTimes, stepTime)
		res.JET += stepTime
		res.Supersteps++

		// Deliver: build next inboxes and active set.
		nextC := make(map[int32]int64)
		nextM := make(map[int32][]int64)
		for v := range activeNow {
			activeNow[v] = false
		}
		anyActive = false
		for r := 0; r < e.ranks; r++ {
			oc := &outcomes[r]
			if combined {
				for _, box := range oc.outbox {
					for v, m := range box {
						if old, ok := nextC[v]; ok {
							nextC[v] = prog.Combine(old, m)
						} else {
							nextC[v] = m
						}
					}
				}
			} else {
				for _, box := range oc.outMulti {
					for v, ms := range box {
						nextM[v] = append(nextM[v], ms...)
					}
				}
			}
			for _, v := range oc.active {
				if !activeNow[v] {
					activeNow[v] = true
					anyActive = true
				}
			}
		}
		inboxC, inboxM = nextC, nextM
	}
	res.Values = values
	return res, nil
}

// runRank processes all of rank r's vertices that are active or have
// messages, in ascending vertex order. It only writes values of its own
// vertices, so the shared values slice is race-free across ranks.
func (e *Engine) runRank(r int, prog Program, values []int64, activeNow []bool, inboxC map[int32]int64, inboxM map[int32][]int64, combined bool) rankOutcome {
	oc := rankOutcome{
		msgs: make([]int64, e.ranks),
	}
	if combined {
		oc.outbox = make([]map[int32]int64, e.ranks)
	} else {
		oc.outMulti = make([]map[int32][]int64, e.ranks)
	}
	var msgScratch [1]int64
	send := func(to int32, m int64) {
		dst := int(e.p.Assign[to])
		oc.msgs[dst]++
		oc.scanned++
		if combined {
			if oc.outbox[dst] == nil {
				oc.outbox[dst] = make(map[int32]int64)
			}
			if old, ok := oc.outbox[dst][to]; ok {
				oc.outbox[dst][to] = prog.Combine(old, m)
			} else {
				oc.outbox[dst][to] = m
			}
		} else {
			if oc.outMulti[dst] == nil {
				oc.outMulti[dst] = make(map[int32][]int64)
			}
			oc.outMulti[dst][to] = append(oc.outMulti[dst][to], m)
		}
	}
	for _, v := range e.rankVerts[r] {
		var msgs []int64
		if combined {
			if m, ok := inboxC[v]; ok {
				msgScratch[0] = m
				msgs = msgScratch[:]
			}
		} else if ms, ok := inboxM[v]; ok {
			msgs = ms
		}
		if !activeNow[v] && msgs == nil {
			continue
		}
		newVal, stayActive := prog.Compute(v, values[v], msgs, send)
		//lint:ignore sharedwrite rank r owns every v in rankVerts[r]; concurrent ranks write disjoint vertex slots
		values[v] = newVal
		oc.computed++
		if stayActive {
			oc.active = append(oc.active, v)
		}
	}
	return oc
}

// accountStep converts the rank outcomes of one superstep into model
// time and volume, returning SET = max over ranks of per-rank time.
func (e *Engine) accountStep(outcomes []rankOutcome, res *Result) float64 {
	group := float64(e.opts.MsgGroupSize)
	// Per-rank send/recv transfer times split by locality.
	sendIntra := make([]float64, e.ranks) // shared-memory transfers (same node)
	sendInter := make([]float64, e.ranks) // RDMA transfers (cross node)
	recvIntra := make([]float64, e.ranks)
	recvInter := make([]float64, e.ranks)
	compute := make([]float64, e.ranks)

	for r := 0; r < e.ranks; r++ {
		oc := &outcomes[r]
		compute[r] = computePerVertex*float64(oc.computed) + computePerEdge*float64(oc.scanned)
		for dst := 0; dst < e.ranks; dst++ {
			m := oc.msgs[dst]
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
	nodeIntra := map[int]float64{}
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
