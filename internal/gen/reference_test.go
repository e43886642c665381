package gen

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"paragon/internal/graph"
)

// rmatReference is RMAT as it was written with a map[int64]struct{}
// dedup and a float64 quadrant switch. The production generator must
// emit the same graph, byte for byte, for every input.
func rmatReference(n int32, m int64, a, b, c float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	levels := 0
	for (int64(1) << levels) < int64(n) {
		levels++
	}
	size := int64(1) << levels
	perm := rng.Perm(int(size))
	bld := graph.NewBuilder(n)
	attempts := m * 4
	var added int64
	seen := make(map[int64]struct{}, m)
	for i := int64(0); i < attempts && added < m; i++ {
		var u, v int64
		for l := 0; l < levels; l++ {
			r := rng.Float64()
			u <<= 1
			v <<= 1
			switch {
			case r < a:
			case r < a+b:
				v |= 1
			case r < a+b+c:
				u |= 1
			default:
				u |= 1
				v |= 1
			}
		}
		pu, pv := int64(perm[u])%int64(n), int64(perm[v])%int64(n)
		if pu == pv {
			continue
		}
		if pu > pv {
			pu, pv = pv, pu
		}
		key := pu*int64(n) + pv
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		bld.AddEdge(int32(pu), int32(pv))
		added++
	}
	ensureNoIsolates(bld, rng)
	return bld.Build()
}

// erdosRenyiReference is ErdosRenyi as it was written with a
// map[int64]struct{} dedup.
func erdosRenyiReference(n int32, m int64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	bld := graph.NewBuilder(n)
	seen := make(map[int64]struct{}, m)
	for added := int64(0); added < m; {
		u, v := int32(rng.Intn(int(n))), int32(rng.Intn(int(n)))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := int64(u)*int64(n) + int64(v)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		bld.AddEdge(u, v)
		added++
	}
	ensureNoIsolates(bld, rng)
	return bld.Build()
}

func binaryBytes(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRMATMatchesReference compares the generator with its reference
// on the whole CSR: tiny n, an m above n(n−1)/2 (so the 4·m attempt cap
// ends the loop), a non-power-of-two n, and three probability triples.
func TestRMATMatchesReference(t *testing.T) {
	sizes := []struct {
		n int32
		m int64
	}{
		{2, 1}, {2, 5}, {3, 2}, {3, 10}, {5, 40}, {17, 60},
		{64, 300}, {1000, 5000}, {1500, 9000}, {12000, 50000},
	}
	probs := [][3]float64{{.57, .19, .19}, {.25, .25, .25}, {.45, .15, .15}}
	for _, sz := range sizes {
		for _, p := range probs {
			for _, seed := range []int64{1, 7, 42} {
				name := fmt.Sprintf("n=%d/m=%d/abc=%v/seed=%d", sz.n, sz.m, p, seed)
				got := binaryBytes(t, RMAT(sz.n, sz.m, p[0], p[1], p[2], seed))
				want := binaryBytes(t, rmatReference(sz.n, sz.m, p[0], p[1], p[2], seed))
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: CSR bytes differ from the reference", name)
				}
			}
		}
	}
}

// TestErdosRenyiMatchesReference compares G(n, m) with its reference,
// complete graphs included.
func TestErdosRenyiMatchesReference(t *testing.T) {
	sizes := []struct {
		n int32
		m int64
	}{
		{2, 0}, {2, 1}, {3, 3}, {5, 10}, {50, 1225}, {64, 300}, {1000, 5000}, {5000, 40000},
	}
	for _, sz := range sizes {
		for _, seed := range []int64{1, 7, 42} {
			got := binaryBytes(t, ErdosRenyi(sz.n, sz.m, seed))
			want := binaryBytes(t, erdosRenyiReference(sz.n, sz.m, seed))
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d m=%d seed=%d: CSR bytes differ from the reference", sz.n, sz.m, seed)
			}
		}
	}
}
