package stream

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"paragon/internal/gen"
	"paragon/internal/partition"
)

func TestFennelBasic(t *testing.T) {
	g := gen.RMAT(2000, 10000, 0.57, 0.19, 0.19, 8)
	p := Fennel(g, 8, DefaultOptions())
	if err := p.Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for v, a := range p.Assign {
		if a < 0 {
			t.Fatalf("vertex %d unassigned", v)
		}
	}
}

func TestFennelBeatsHashingOnCut(t *testing.T) {
	g := gen.Mesh2D(40, 40)
	fp := Fennel(g, 4, DefaultOptions())
	hp := HP(g, 4)
	if partition.EdgeCut(g, fp) >= partition.EdgeCut(g, hp) {
		t.Fatalf("Fennel cut %d not below HP cut %d",
			partition.EdgeCut(g, fp), partition.EdgeCut(g, hp))
	}
}

func TestFennelSoftBalance(t *testing.T) {
	g := gen.RMAT(3000, 15000, 0.57, 0.19, 0.19, 9)
	g.UseDegreeWeights()
	p := Fennel(g, 8, DefaultOptions())
	if s := partition.Skewness(g, p); s > 2.2 {
		t.Fatalf("Fennel skew %.2f beyond its soft-balance regime", s)
	}
}

func TestFennelPanicsOnBadK(t *testing.T) {
	g := gen.ErdosRenyi(10, 20, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Fennel(g, 0, DefaultOptions())
}

func TestStreamOrders(t *testing.T) {
	g := gen.Mesh2D(10, 10)
	for _, o := range []Order{OrderNatural, OrderRandom, OrderBFS, OrderDFS} {
		seq := streamOrder(g, o, 3)
		if len(seq) != int(g.NumVertices()) {
			t.Fatalf("%v order length %d", o, len(seq))
		}
		seen := make([]bool, g.NumVertices())
		for _, v := range seq {
			if seen[v] {
				t.Fatalf("%v order repeats vertex %d", o, v)
			}
			seen[v] = true
		}
		if o.String() == "unknown" {
			t.Fatalf("order %d has no name", o)
		}
	}
	if Order(99).String() != "unknown" {
		t.Fatal("unknown order should stringify as unknown")
	}
}

func TestBFSOrderIsBreadthFirst(t *testing.T) {
	// On a path graph starting anywhere, BFS order must expand outward:
	// positions of vertices are monotone in distance from the start.
	g := gen.Mesh2D(2, 20) // thin strip; BFS layers are predictable
	seq := traversalOrder(g, 7, false)
	pos := make([]int, g.NumVertices())
	for i, v := range seq {
		pos[v] = i
	}
	start := seq[0]
	// Every vertex (connected graph) must appear after at least one
	// neighbor nearer the start.
	for _, v := range seq[1:] {
		ok := false
		for _, u := range g.Neighbors(v) {
			if pos[u] < pos[v] {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("vertex %d appears before all its neighbors (start %d)", v, start)
		}
	}
}

func TestOrdersCoverDisconnectedGraphs(t *testing.T) {
	g := gen.ErdosRenyi(50, 30, 4) // sparse: likely disconnected
	for _, o := range []Order{OrderBFS, OrderDFS} {
		seq := streamOrder(g, o, 1)
		if len(seq) != 50 {
			t.Fatalf("%v covered %d of 50 vertices", o, len(seq))
		}
	}
}

func TestDGOrderVariants(t *testing.T) {
	g := gen.Mesh2D(20, 20)
	for _, o := range []Order{OrderNatural, OrderRandom, OrderBFS, OrderDFS} {
		p := DG(g, 4, Options{Eps: 0.02, Order: o, Seed: 5})
		if err := p.Validate(g); err != nil {
			t.Fatalf("order %v: %v", o, err)
		}
	}
	// BFS order should give DG strong locality on a mesh: at least as
	// good as natural order is not guaranteed, but it must beat hashing.
	pb := DG(g, 4, Options{Eps: 0.02, Order: OrderBFS, Seed: 5})
	if partition.EdgeCut(g, pb) >= partition.EdgeCut(g, HP(g, 4)) {
		t.Fatal("BFS-ordered DG lost to hashing")
	}
}

// isqrt128 is exact over the whole domain Place uses (x < 2^124),
// including the squares, their neighbors and the ends of the range.
func TestIsqrt128(t *testing.T) {
	xs := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(3), big.NewInt(4)}
	top := new(big.Int).Lsh(big.NewInt(1), 124)
	xs = append(xs, new(big.Int).Sub(top, big.NewInt(1)))
	rng := rand.New(rand.NewSource(1))
	for range 2000 {
		r := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 62))
		sq := new(big.Int).Mul(r, r)
		xs = append(xs, sq, new(big.Int).Sub(sq, big.NewInt(1)), new(big.Int).Add(sq, big.NewInt(1)))
		xs = append(xs, new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(rng.Intn(125)))))
	}
	mask := new(big.Int).SetUint64(math.MaxUint64)
	for _, x := range xs {
		if x.Sign() < 0 || x.Cmp(top) >= 0 {
			continue
		}
		hi := new(big.Int).Rsh(x, 64).Uint64()
		lo := new(big.Int).And(x, mask).Uint64()
		if got, want := isqrt128(hi, lo), new(big.Int).Sqrt(x).Uint64(); got != want {
			t.Fatalf("isqrt128(%v) = %d, want %d", x, got, want)
		}
	}
}

// The penalty coefficient saturates instead of overflowing: a graph whose
// edge weight dwarfs its vertex weight gets p = 2^31 − 1. At that p, with
// loads near 2^62 and affinities past 2^43, Place still picks what the
// exact scores computed in math/big pick, on both sides of the point
// where the winner flips.
func TestFennelPenaltySaturates(t *testing.T) {
	const p = 1<<31 - 1
	if got := FennelPenalty(8, 1<<61, 1); got != p {
		t.Fatalf("FennelPenalty = %d, want the 2^31 − 1 ceiling", got)
	}
	if got := FennelPenalty(8, 0, 0); got != 0 {
		t.Fatalf("FennelPenalty of an edgeless graph = %d, want 0", got)
	}
	const bound = 1<<62 - 1 // LDG's C, and Fennel's backstop 2C
	load := []int64{1 << 60, 1 << 61}
	score := func(rule PlaceRule, aff, l int64) *big.Int {
		a := big.NewInt(aff)
		if rule == PlaceLDG {
			return a.Mul(a, big.NewInt(bound-l))
		}
		pen := new(big.Int).Mul(big.NewInt(p*p), big.NewInt(l))
		return a.Lsh(a, 16).Sub(a, pen.Sqrt(pen))
	}
	for _, c := range []struct {
		rule      PlaceRule
		capacity  int64
		neighbors []int // of the second, heavier partition
	}{
		{PlaceFennel, bound / 2, []int{6600, 6700, 6800, 6900, 7000}},
		{PlaceLDG, bound, []int{1, 2, 3}},
	} {
		won := map[int32]bool{}
		for _, n := range c.neighbors {
			// One neighbor in partition 0, n in partition 1, each of the
			// largest edge weight.
			adj, wts, assign := make([]int32, n+1), make([]int32, n+1), make([]int32, n+1)
			for i := range adj {
				adj[i], wts[i], assign[i] = int32(i), 1<<31-1, min(int32(i), 1)
			}
			want := int32(0)
			if score(c.rule, int64(n)*(1<<31-1), load[1]).Cmp(score(c.rule, 1<<31-1, load[0])) > 0 {
				want = 1
			}
			if got := NewPlacer(c.rule, 2).Place(adj, wts, assign, load, 1, c.capacity, p); got != want {
				t.Fatalf("%v with %d neighbors in partition 1: placed on %d, want %d", c.rule, n, got, want)
			}
			won[want] = true
		}
		if !won[0] || !won[1] {
			t.Fatalf("%v: the sweep never flips the winner", c.rule)
		}
	}
}
