package gen

import (
	"fmt"
	"testing"
)

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
