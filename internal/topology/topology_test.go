package topology

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNodeSpecValidate(t *testing.T) {
	good := NodeSpec{Sockets: 2, CoresPerSocket: 8, Arch: NUMA, L2GroupSize: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []NodeSpec{
		{Sockets: 0, CoresPerSocket: 8, L2GroupSize: 1},
		{Sockets: 2, CoresPerSocket: 0, L2GroupSize: 1},
		{Sockets: 2, CoresPerSocket: 8, L2GroupSize: 3}, // doesn't divide 8
		{Sockets: 2, CoresPerSocket: 8, L2GroupSize: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestFlatSwitchHops(t *testing.T) {
	var f FlatSwitch
	if f.Hops(3, 3) != 0 {
		t.Fatal("same node should be 0 hops")
	}
	if f.Hops(0, 5) != 1 {
		t.Fatal("distinct nodes should be 1 hop on a flat switch")
	}
	if f.MaxHops() != 1 {
		t.Fatal("flat switch max hops should be 1")
	}
}

func TestTorus3DHops(t *testing.T) {
	// The paper's Gordon: 4x4x4 torus, 16 nodes per switch, distances 0–6.
	tor := Torus3D{X: 4, Y: 4, Z: 4, NodesPerSwitch: 16}
	if tor.Hops(0, 5) != 0 {
		t.Fatal("nodes 0 and 5 share switch 0")
	}
	if tor.Hops(0, 16) != 1 {
		t.Fatalf("adjacent switches should be 1 hop, got %d", tor.Hops(0, 16))
	}
	if got := tor.MaxHops(); got != 6 {
		t.Fatalf("MaxHops = %d, want 6 (the paper's 0–6 hop range)", got)
	}
	// Wraparound: switch at x=3 is 1 hop from x=0.
	if h := tor.Hops(0, 3*16); h != 1 {
		t.Fatalf("torus wraparound hop = %d, want 1", h)
	}
	// Farthest switch: coords (2,2,2) => switch 2 + 2*4 + 2*16 = 42.
	if h := tor.Hops(0, 42*16); h != 6 {
		t.Fatalf("opposite corner hops = %d, want 6", h)
	}
	// Symmetry.
	for a := 0; a < 64; a += 7 {
		for b := 0; b < 64; b += 5 {
			if tor.Hops(a*16, b*16) != tor.Hops(b*16, a*16) {
				t.Fatalf("asymmetric hops between switches %d and %d", a, b)
			}
		}
	}
}

func TestClusterLayout(t *testing.T) {
	c := PittCluster(2)
	if c.TotalCores() != 40 {
		t.Fatalf("PittCluster(2) cores = %d, want 40", c.TotalCores())
	}
	l := c.Loc(0)
	if l.Node != 0 || l.Socket != 0 || l.Core != 0 {
		t.Fatalf("rank 0 at %+v", l)
	}
	l = c.Loc(10)
	if l.Node != 0 || l.Socket != 1 || l.Core != 0 {
		t.Fatalf("rank 10 should start socket 1: %+v", l)
	}
	l = c.Loc(20)
	if l.Node != 1 || l.Socket != 0 {
		t.Fatalf("rank 20 should start node 1: %+v", l)
	}
	l = c.Loc(39)
	if l.Node != 1 || l.Socket != 1 || l.Core != 9 {
		t.Fatalf("rank 39 at %+v", l)
	}
}

func TestClusterLocPanicsOutOfRange(t *testing.T) {
	c := PittCluster(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Loc(20)
}

func TestHeterogeneousCluster(t *testing.T) {
	// The paper notes nodes may have different core counts; verify mixed
	// layouts resolve correctly.
	nodes := []NodeSpec{
		{Sockets: 2, CoresPerSocket: 10, Arch: NUMA, L2GroupSize: 1},
		{Sockets: 2, CoresPerSocket: 8, Arch: NUMA, L2GroupSize: 1},
	}
	c, err := NewCluster("mixed", nodes, FlatSwitch{}, DefaultLatency())
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalCores() != 36 {
		t.Fatalf("cores = %d, want 36", c.TotalCores())
	}
	if l := c.Loc(20); l.Node != 1 || l.Socket != 0 || l.Core != 0 {
		t.Fatalf("rank 20 at %+v, want node 1 socket 0 core 0", l)
	}
	if l := c.Loc(35); l.Node != 1 || l.Socket != 1 || l.Core != 7 {
		t.Fatalf("rank 35 at %+v", l)
	}
}

func TestNewClusterErrors(t *testing.T) {
	if _, err := NewCluster("x", nil, FlatSwitch{}, DefaultLatency()); err == nil {
		t.Fatal("expected error for empty cluster")
	}
	if _, err := NewCluster("x", []NodeSpec{{Sockets: 2, CoresPerSocket: 8, L2GroupSize: 1}}, nil, DefaultLatency()); err == nil {
		t.Fatal("expected error for nil interconnect")
	}
	if _, err := NewCluster("x", []NodeSpec{{Sockets: 0}}, FlatSwitch{}, DefaultLatency()); err == nil {
		t.Fatal("expected error for invalid node")
	}
}

func TestCommClasses(t *testing.T) {
	c := UMACluster(2) // 2 sockets × 4 cores, L2 shared by pairs
	cases := []struct {
		r1, r2 int
		want   CommClass
	}{
		{0, 0, SameCore},
		{0, 1, SharedL2},    // same L2 pair
		{0, 2, IntraSocket}, // same socket, different L2
		{0, 4, InterSocket}, // socket 0 vs 1
		{0, 8, InterNode},   // node 0 vs 1
	}
	for _, tc := range cases {
		if got := c.Class(tc.r1, tc.r2); got != tc.want {
			t.Errorf("Class(%d,%d) = %v, want %v", tc.r1, tc.r2, got, tc.want)
		}
	}
	// NUMA nodes have private L2s: ranks 0 and 1 are plain intra-socket.
	p := PittCluster(1)
	if got := p.Class(0, 1); got != IntraSocket {
		t.Errorf("NUMA Class(0,1) = %v, want IntraSocket", got)
	}
}

func TestCostOrdering(t *testing.T) {
	c := UMACluster(2)
	sharedL2 := c.Cost(0, 1)
	intraSock := c.Cost(0, 2)
	interSock := c.Cost(0, 4)
	interNode := c.Cost(0, 8)
	if !(0 < sharedL2 && sharedL2 < intraSock && intraSock < interSock && interSock < interNode) {
		t.Fatalf("cost ordering violated: %v %v %v %v", sharedL2, intraSock, interSock, interNode)
	}
	if c.Cost(3, 3) != 0 {
		t.Fatal("self cost must be 0")
	}
}

func TestCostMatrixSymmetric(t *testing.T) {
	c := GordonCluster(3)
	m := c.CostMatrix()
	if len(m) != 48 {
		t.Fatalf("matrix size %d, want 48", len(m))
	}
	for i := range m {
		if m[i][i] != 0 {
			t.Fatalf("diagonal m[%d][%d] = %v", i, i, m[i][i])
		}
		for j := range m[i] {
			if m[i][j] != m[j][i] {
				t.Fatalf("asymmetric costs at (%d,%d)", i, j)
			}
			if i != j && m[i][j] <= 0 {
				t.Fatalf("non-positive off-diagonal cost at (%d,%d)", i, j)
			}
		}
	}
}

func TestGordonHopsAffectCost(t *testing.T) {
	// 32 nodes spread across 2 switches: ranks on different switches must
	// cost more than ranks on different nodes under one switch.
	c := GordonCluster(32)
	sameSwitch := c.Cost(0, 16)    // nodes 0 and 1, same switch
	diffSwitch := c.Cost(0, 16*16) // node 0 vs node 16 (switch 1)
	if sameSwitch >= diffSwitch {
		t.Fatalf("same-switch cost %v should be below cross-switch cost %v", sameSwitch, diffSwitch)
	}
}

func TestApplyContention(t *testing.T) {
	c := PittCluster(2)
	base := c.CostMatrix()
	pen := c.ApplyContention(base, 1.0)
	s1 := c.MaxInterNodeCost()
	s2 := c.MaxInterSocketCost()
	// Intra-socket pair: penalty λ(s1+s2).
	if got, want := pen[0][1], base[0][1]+s1+s2; got != want {
		t.Fatalf("intra-socket penalty: got %v, want %v", got, want)
	}
	// Inter-socket pair: penalty λ·s1.
	if got, want := pen[0][10], base[0][10]+s1; got != want {
		t.Fatalf("inter-socket penalty: got %v, want %v", got, want)
	}
	// Inter-node pair: unchanged.
	if pen[0][20] != base[0][20] {
		t.Fatal("inter-node cost must not be penalized")
	}
	// Diagonal unchanged.
	if pen[5][5] != 0 {
		t.Fatal("diagonal must stay 0")
	}
	// λ=0 is a no-op copy.
	same := c.ApplyContention(base, 0)
	for i := range base {
		for j := range base[i] {
			if same[i][j] != base[i][j] {
				t.Fatal("λ=0 must not change costs")
			}
		}
	}
	// The copy must not alias.
	same[0][1] = 999
	if base[0][1] == 999 {
		t.Fatal("ApplyContention must copy the matrix")
	}
	// λ is clamped.
	over := c.ApplyContention(base, 5)
	if over[0][1] != pen[0][1] {
		t.Fatal("λ > 1 should clamp to 1")
	}
}

func TestContentionInvertsPreference(t *testing.T) {
	// The core motivation of §6: with enough contention penalty, an
	// intra-node pair can become more expensive than an inter-node pair,
	// making the refiner offload communication across nodes.
	c := PittCluster(2)
	base := c.CostMatrix()
	if base[0][1] >= base[0][20] {
		t.Fatal("precondition: intra-node must start cheaper")
	}
	pen := c.ApplyContention(base, 1.0)
	if pen[0][1] <= pen[0][20] {
		t.Fatalf("λ=1 should invert the preference: intra %v vs inter %v", pen[0][1], pen[0][20])
	}
}

func TestContendedResourcesTable1(t *testing.T) {
	// UMA (Figure 2a) rows of Table 1.
	u := UMACluster(2)
	g1 := u.ContendedResources(0, 1) // same socket, shared L2
	if len(g1) != 5 {
		t.Fatalf("UMA G1 contends %d resources, want all 5", len(g1))
	}
	g2 := u.ContendedResources(0, 2) // same socket, different L2
	if len(g2) != 3 {
		t.Fatalf("UMA G2 contends %d resources, want 3", len(g2))
	}
	g3 := u.ContendedResources(0, 4) // different sockets
	if len(g3) != 1 || g3[0] != ResMemController {
		t.Fatalf("UMA G3 = %v, want only the memory controller", g3)
	}
	// NUMA (Figure 2b) rows.
	p := PittCluster(1)
	n1 := p.ContendedResources(0, 1) // same socket
	if len(n1) != 4 {
		t.Fatalf("NUMA G1 contends %d resources, want 4", len(n1))
	}
	n2 := p.ContendedResources(0, 10) // different sockets
	if len(n2) != 1 || n2[0] != ResFSBorQPI {
		t.Fatalf("NUMA G2 = %v, want only QPI/HT", n2)
	}
	// Different nodes: RDMA, no shared resources.
	u2 := UMACluster(2)
	if rs := u2.ContendedResources(0, 8); rs != nil {
		t.Fatalf("inter-node pair contends %v, want none", rs)
	}
	if rs := u2.ContendedResources(3, 3); rs != nil {
		t.Fatal("same core should report no contention pair")
	}
}

func TestUniformMatrix(t *testing.T) {
	m := UniformMatrix(4)
	for i := range m {
		for j := range m[i] {
			want := 1.0
			if i == j {
				want = 0
			}
			if m[i][j] != want {
				t.Fatalf("m[%d][%d] = %v", i, j, m[i][j])
			}
		}
	}
}

func TestPaperExampleMatrix(t *testing.T) {
	m := PaperExampleMatrix()
	if m[0][2] != 6 || m[2][0] != 6 || m[0][1] != 1 || m[1][2] != 1 {
		t.Fatalf("Figure 6 matrix wrong: %v", m)
	}
}

func TestStringers(t *testing.T) {
	if UMA.String() != "UMA" || NUMA.String() != "NUMA" {
		t.Fatal("Arch String")
	}
	if Arch(9).String() == "" {
		t.Fatal("unknown Arch should stringify")
	}
	for _, cc := range []CommClass{SameCore, SharedL2, IntraSocket, InterSocket, InterNode, CommClass(42)} {
		if cc.String() == "" {
			t.Fatal("CommClass String empty")
		}
	}
	for _, r := range []SharedResource{ResSocket, ResLLCSharing, ResLLCContention, ResFSBorQPI, ResMemController, SharedResource(42)} {
		if r.String() == "" {
			t.Fatal("SharedResource String empty")
		}
	}
	if (Torus3D{X: 4, Y: 4, Z: 4, NodesPerSwitch: 16}).Name() == "" || (FlatSwitch{}).Name() == "" {
		t.Fatal("interconnect names empty")
	}
}

// Property: Class and Cost agree — higher classes never cost less, for
// arbitrary rank pairs in a mixed cluster.
func TestQuickClassCostMonotone(t *testing.T) {
	c := GordonCluster(4)
	f := func(a, b uint16) bool {
		r1 := int(a) % c.TotalCores()
		r2 := int(b) % c.TotalCores()
		cl := c.Class(r1, r2)
		cost := c.Cost(r1, r2)
		switch cl {
		case SameCore:
			return cost == 0
		case SharedL2:
			return cost == c.Latency.SharedL2
		case IntraSocket:
			return cost == c.Latency.IntraSocket
		case InterSocket:
			return cost == c.Latency.InterSocket
		default:
			return cost >= c.Latency.InterNodeBase
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDescribe(t *testing.T) {
	out := UMACluster(1).Describe()
	for _, want := range []string{"UMA-FSB", "1 nodes, 8 cores", "node 0 (UMA, 2 sockets × 4 cores)", "[core0 core1]", "socket 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Describe missing %q:\n%s", want, out)
		}
	}
	p := PittCluster(2).Describe()
	if !strings.Contains(p, "2 nodes, 40 cores") || !strings.Contains(p, "flat switch") {
		t.Fatalf("Pitt Describe:\n%s", p)
	}
	g := GordonCluster(1).Describe()
	if !strings.Contains(g, "3D torus") || !strings.Contains(g, "max 6 hops") {
		t.Fatalf("Gordon Describe:\n%s", g)
	}
}

func TestClusterByName(t *testing.T) {
	for name, preset := range map[string]func(int) *Cluster{
		"pitt": PittCluster, "gordon": GordonCluster, "uma": UMACluster,
	} {
		got, err := ClusterByName(name, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := preset(3); got.Name != want.Name || got.TotalCores() != want.TotalCores() {
			t.Errorf("%s: got %s with %d cores, want %s with %d", name,
				got.Name, got.TotalCores(), want.Name, want.TotalCores())
		}
	}
	if _, err := ClusterByName("nope", 3); err == nil || !strings.Contains(err.Error(), `unknown cluster "nope"`) {
		t.Errorf("unknown name: err = %v", err)
	}
}
