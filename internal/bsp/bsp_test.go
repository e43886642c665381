package bsp

import (
	"fmt"
	"testing"

	"paragon/internal/gen"
	"paragon/internal/partition"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

func testEngine(t *testing.T, k int32) (*Engine, *partition.Partitioning) {
	t.Helper()
	g := gen.Mesh2D(12, 12)
	p := stream.DG(g, k, stream.DefaultOptions())
	e, err := NewEngine(g, p, topology.PittCluster(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e, p
}

func TestNewEngineErrors(t *testing.T) {
	g := gen.Mesh2D(6, 6)
	bad := partition.New(4, 7)
	if _, err := NewEngine(g, bad, topology.PittCluster(1), Options{}); err == nil {
		t.Fatal("expected validation error")
	}
	p := stream.HP(g, 30)
	if _, err := NewEngine(g, p, topology.UMACluster(1), Options{}); err == nil {
		t.Fatal("expected too-many-partitions error")
	}
}

func TestRunNeedsProgram(t *testing.T) {
	e, _ := testEngine(t, 4)
	if _, err := e.Run(Program{}); err == nil {
		t.Fatal("expected program error")
	}
}

func TestRunTerminatesAndCountsSteps(t *testing.T) {
	e, _ := testEngine(t, 4)
	// A program where only vertex 0 is active once and sends nothing.
	prog := Program{
		Init: func(v int32) (int64, bool) { return int64(v), v == 0 },
		Compute: func(v int32, val, msg int64, ok bool, send func(int32, int64)) (int64, bool) {
			return val + 100, false
		},
		Combine: add,
	}
	res, err := e.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Supersteps != 1 {
		t.Fatalf("supersteps = %d, want 1", res.Supersteps)
	}
	if res.Values[0] != 100 || res.Values[1] != 1 {
		t.Fatalf("values wrong: %d %d", res.Values[0], res.Values[1])
	}
	if res.Messages != 0 || res.Volume != (VolumeBreakdown{}) {
		t.Fatalf("phantom traffic: %+v", res)
	}
	if len(res.StepTimes) != 1 || res.JET != res.StepTimes[0] {
		t.Fatalf("JET bookkeeping wrong: %+v", res)
	}
}

func TestMaxSuperstepsGuard(t *testing.T) {
	e, _ := testEngine(t, 2)
	prog := Program{
		Init:    func(v int32) (int64, bool) { return 0, v == 0 },
		Compute: func(v int32, val, msg int64, ok bool, send func(int32, int64)) (int64, bool) { return val, true },
		Combine: add,
	}
	old := maxSupersteps
	maxSupersteps = 10
	t.Cleanup(func() { maxSupersteps = old })
	if _, err := e.Run(prog); err == nil || err.Error() != "bsp: exceeded 10 supersteps" {
		t.Fatalf("err = %v, want the superstep-limit error", err)
	}
}

func TestMessageDeliveryAndCombiner(t *testing.T) {
	g := gen.Mesh2D(4, 4) // vertex 0 neighbors: 1, 4, 5
	p := partition.New(2, g.NumVertices())
	for v := int32(8); v < 16; v++ {
		p.Assign[v] = 1
	}
	e, err := NewEngine(g, p, topology.PittCluster(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Round 0: every vertex sends its id to all neighbors; min-combiner
	// means each vertex ends with its smallest neighbor id.
	prog := Program{
		Init: func(v int32) (int64, bool) { return int64(v), true },
		Compute: func(v int32, val, msg int64, ok bool, send func(int32, int64)) (int64, bool) {
			if ok {
				return msg, false
			}
			for _, u := range g.Neighbors(v) {
				send(u, int64(v))
			}
			return val, false
		},
		Combine: func(a, b int64) int64 {
			if a < b {
				return a
			}
			return b
		},
	}
	res, err := e.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < g.NumVertices(); v++ {
		want := int64(1 << 30)
		for _, u := range g.Neighbors(v) {
			if int64(u) < want {
				want = int64(u)
			}
		}
		if res.Values[v] != want {
			t.Fatalf("vertex %d got %d, want min neighbor %d", v, res.Values[v], want)
		}
	}
	if res.Supersteps != 2 {
		t.Fatalf("supersteps = %d, want 2", res.Supersteps)
	}
	if res.Messages == 0 {
		t.Fatal("cross-rank messages expected (partitions split the mesh)")
	}
}

func TestRunNeedsCombine(t *testing.T) {
	// Messages to a vertex are always folded into one: a program
	// without a combiner is refused before any superstep runs.
	e, _ := testEngine(t, 4)
	prog := floodProgram(gen.Mesh2D(12, 12))
	prog.Combine = nil
	if _, err := e.Run(prog); err == nil || err.Error() != "bsp: program needs Init, Compute and Combine" {
		t.Fatalf("err = %v, want the nil-Combine refusal", err)
	}
}

func TestVolumeBreakdownClasses(t *testing.T) {
	// 2 nodes × 2 sockets: partitions 0,1 on node0/socket0+1, 2,3 on
	// node1. A program sending between specific partitions must book
	// volume in the right class.
	g := gen.Mesh2D(4, 4)
	p := partition.New(4, g.NumVertices())
	// vertices 0..3 -> part0, 4..7 -> part1, 8..11 -> part2, 12..15 -> part3
	for v := int32(0); v < 16; v++ {
		p.Assign[v] = v / 4
	}
	nodes := []topology.NodeSpec{
		{Sockets: 2, CoresPerSocket: 1, Arch: topology.NUMA, L2GroupSize: 1},
		{Sockets: 2, CoresPerSocket: 1, Arch: topology.NUMA, L2GroupSize: 1},
	}
	cl, err := topology.NewCluster("tiny", nodes, topology.FlatSwitch{}, topology.DefaultLatency())
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, p, cl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// One round: vertex 0 (part0/rank0) sends one message to vertex 4
	// (rank1, inter-socket same node) and one to vertex 8 (rank2, inter
	// node).
	prog := Program{
		Init: func(v int32) (int64, bool) { return 0, v == 0 },
		Compute: func(v int32, val, msg int64, ok bool, send func(int32, int64)) (int64, bool) {
			if !ok && v == 0 {
				send(4, 1)
				send(8, 1)
			}
			return val, false
		},
		Combine: add,
	}
	res, err := e.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Volume.InterSocket != bytesPerMessage {
		t.Fatalf("inter-socket volume = %d, want %d", res.Volume.InterSocket, bytesPerMessage)
	}
	if res.Volume.InterNode != bytesPerMessage {
		t.Fatalf("inter-node volume = %d, want %d", res.Volume.InterNode, bytesPerMessage)
	}
	if res.Volume.IntraSocket != 0 {
		t.Fatalf("intra-socket volume = %d, want 0", res.Volume.IntraSocket)
	}
}

func TestMessageGroupingReducesJET(t *testing.T) {
	g := gen.Mesh2D(16, 16)
	p := stream.HP(g, 8)
	run := func(group int) float64 {
		e, err := NewEngine(g, p, topology.PittCluster(1), Options{MsgGroupSize: group})
		if err != nil {
			t.Fatal(err)
		}
		prog := floodProgram(g)
		res, err := e.Run(prog)
		if err != nil {
			t.Fatal(err)
		}
		return res.JET
	}
	if j16, j1 := run(16), run(1); j16 >= j1 {
		t.Fatalf("grouping 16 (JET %.2f) not cheaper than ungrouped (JET %.2f)", j16, j1)
	}
}

func TestContentionRaisesIntraNodeJET(t *testing.T) {
	// All 8 partitions on one node => all traffic is intra-node; raising
	// MemoryContention must raise JET.
	g := gen.Mesh2D(16, 16)
	p := stream.HP(g, 8)
	run := func(mc float64) float64 {
		e, err := NewEngine(g, p, topology.PittCluster(1), Options{MemoryContention: mc})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(floodProgram(g))
		if err != nil {
			t.Fatal(err)
		}
		return res.JET
	}
	low, high := run(0.01), run(0.9)
	if high <= low {
		t.Fatalf("contention had no effect: %.2f vs %.2f", low, high)
	}
}

// floodProgram: every vertex broadcasts once; generates dense traffic.
func floodProgram(g interface {
	Neighbors(int32) []int32
	NumVertices() int32
}) Program {
	return Program{
		Init: func(v int32) (int64, bool) { return 0, true },
		Compute: func(v int32, val, msg int64, ok bool, send func(int32, int64)) (int64, bool) {
			if !ok {
				for _, u := range g.Neighbors(v) {
					send(u, 1)
				}
			}
			return val, false
		},
		Combine: add,
	}
}

func add(a, b int64) int64 { return a + b }

func TestBetterPlacementLowersJET(t *testing.T) {
	// The Table 4 mechanism in miniature: a topology-aligned placement
	// (contiguous blocks on cores) must beat hashing for a mesh.
	g := gen.Mesh2D(24, 24)
	k := int32(8)
	hp := stream.HP(g, k)
	dg := stream.DG(g, k, stream.DefaultOptions())
	cl := topology.PittCluster(1)
	jet := func(p *partition.Partitioning) float64 {
		e, err := NewEngine(g, p, cl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(floodProgram(g))
		if err != nil {
			t.Fatal(err)
		}
		return res.JET
	}
	if jDG, jHP := jet(dg), jet(hp); jDG >= jHP {
		t.Fatalf("DG placement JET %.2f not below HP %.2f", jDG, jHP)
	}
}

func TestDeterministicRuns(t *testing.T) {
	e, _ := testEngine(t, 6)
	g := gen.Mesh2D(12, 12)
	r1, err := e.Run(floodProgram(g))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Run(floodProgram(g))
	if err != nil {
		t.Fatal(err)
	}
	if r1.JET != r2.JET || r1.Messages != r2.Messages || r1.Supersteps != r2.Supersteps {
		t.Fatalf("nondeterministic runs: %+v vs %+v", r1, r2)
	}
}

func TestPanicRecovery(t *testing.T) {
	e, p := testEngine(t, 4)
	prog := Program{
		Init: func(v int32) (int64, bool) { return 0, true },
		Compute: func(v int32, val, msg int64, ok bool, send func(int32, int64)) (int64, bool) {
			if v == 17 {
				panic("vertex program bug")
			}
			return val, false
		},
		Combine: add,
	}
	want := fmt.Sprintf("bsp: rank %d panicked in superstep 0: vertex program bug", p.Assign[17])
	if _, err := e.Run(prog); err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

func TestStepSkewTracked(t *testing.T) {
	e, _ := testEngine(t, 4)
	g := gen.Mesh2D(12, 12)
	res, err := e.Run(floodProgram(g))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.StepSkew) != res.Supersteps {
		t.Fatalf("skew recorded for %d of %d steps", len(res.StepSkew), res.Supersteps)
	}
	for i, s := range res.StepSkew {
		if s < 1-1e-9 {
			t.Fatalf("step %d skew %v below 1", i, s)
		}
	}
}
