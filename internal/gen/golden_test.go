package gen

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// graphFingerprint hashes the full CSR adjacency (degrees + sorted
// neighbor lists) so two graphs fingerprint equal iff their edge sets
// are identical.
func graphFingerprint(t *testing.T, g interface {
	NumVertices() int32
	Neighbors(int32) []int32
}) uint64 {
	t.Helper()
	h := fnv.New64a()
	buf := make([]byte, 8)
	put := func(x int64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf)
	}
	n := g.NumVertices()
	put(int64(n))
	for v := int32(0); v < n; v++ {
		adj := g.Neighbors(v)
		put(int64(len(adj)))
		for _, u := range adj {
			put(int64(u))
		}
	}
	return h.Sum64()
}

// TestRMATSerialGoldenUnchanged pins the legacy serial generator: the
// staging-scan isolate fix must reproduce the historical throwaway-Build
// scan byte for byte (same isolate set, same order, same rng draws).
func TestRMATSerialGoldenUnchanged(t *testing.T) {
	g := RMAT(2000, 8000, 0.57, 0.19, 0.19, 7)
	got := fmt.Sprintf("%#x", graphFingerprint(t, g))
	const want = "0x7c69926acc37128b"
	if got != want {
		t.Fatalf("serial RMAT stream changed: fingerprint %s, want %s", got, want)
	}
}

// TestRMATBenchGoldens pins the inputs of the three RMAT benchmark
// workloads (bench/workloads.go, bench/churn.go) at input seeds 42 and
// 7: a moved fingerprint invalidates every bench hash built on them.
func TestRMATBenchGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-sized generator goldens skipped under -short")
	}
	for _, tc := range []struct {
		n    int32
		m    int64
		seed int64
		want string
	}{
		{100000, 800000, 42, "0x9d416b4087a734f8"},
		{50000, 300000, 42, "0x21f673adf8a69cff"},
		{200000, 1200000, 42, "0xc5f32f19b63cadc5"},
		{100000, 800000, 7, "0x49eeb75d8b03184a"},
		{50000, 300000, 7, "0xb9dbd716aef5306d"},
		{200000, 1200000, 7, "0xc71e92ad184e66da"},
	} {
		g := RMAT(tc.n, tc.m, 0.57, 0.19, 0.19, tc.seed)
		if got := fmt.Sprintf("%#x", graphFingerprint(t, g)); got != tc.want {
			t.Errorf("RMAT(%d, %d, seed %d): fingerprint %s, want %s", tc.n, tc.m, tc.seed, got, tc.want)
		}
	}
}
