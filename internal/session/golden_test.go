package session

import (
	"fmt"
	"testing"

	"paragon/internal/dyn"
	"paragon/internal/stream"
)

// TestSessionGoldens pins what a session ends in after a seeded schedule
// — its live assignment, the directory's published one, the live cut and
// communication, and the live edge count — so a change to the live
// graph, the placers or the epoch cycle must re-pin deliberately instead
// of drifting silently. The cross-worker replay tests only compare a
// session against itself; these compare it against a recorded run. The
// schedules cover DG, LDG and Fennel placement, arrivals with removals,
// fault rates 0 and 0.35, and one and two workers.
func TestSessionGoldens(t *testing.T) {
	type golden struct {
		hash, dirHash uint64
		cut, comm     int64
		edges         int64
	}
	for _, tc := range []struct {
		rule    stream.PlaceRule
		rate    float64
		workers int
		seed    int64
		wl      dyn.WorkloadConfig
		want    golden
	}{
		{stream.PlaceLDG, 0, 1, 101, dyn.WorkloadConfig{Adds: 40, Removes: 15, Arrivals: 5}, golden{0x2c387ac5caf21aca, 0x69363c362d070137, 3307, 2219290132480, 4861}},
		{stream.PlaceFennel, 0.35, 2, 5, dyn.WorkloadConfig{Adds: 30, Removes: 25, Arrivals: 4}, golden{0x47139fb30f03bff3, 0xac342213d9850ef3, 2725, 1828716544000, 3894}},
		{stream.PlaceDG, 0.35, 1, 17, dyn.WorkloadConfig{Adds: 60, Removes: 10, Arrivals: 8, ArrivalDegree: 5}, golden{0x3d6aa9d12a2e5373, 0x595358b0d3776383, 4586, 3077612503040, 6446}},
		{stream.PlaceFennel, 0, 2, 23, dyn.WorkloadConfig{Adds: 20, Removes: 40, Arrivals: 3}, golden{0x88c8ba10402749fb, 0x1789babebc07d851, 1659, 1113336053760, 2513}},
		{stream.PlaceLDG, 0.35, 2, 31, dyn.WorkloadConfig{Adds: 50, Removes: 50, Arrivals: 6}, golden{0x6a524a86bd46f5f3, 0x5aa1eebf10b0b730, 2588, 1736777400320, 3610}},
	} {
		name := fmt.Sprintf("%v/faults=%v/workers=%d/seed=%d", tc.rule, tc.rate, tc.workers, tc.seed)
		t.Run(name, func(t *testing.T) {
			g0, p0 := testBase(t)
			cfg := testConfig(tc.workers, tc.rate, nil, nil)
			cfg.Placement = tc.rule
			s, err := New(g0, p0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			w := dyn.NewWorkload(tc.seed, tc.wl)
			for i := 0; i < 50; i++ {
				if _, err := s.Ingest(w.Next(s.Source())); err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
			}
			if _, err := s.Drain(); err != nil {
				t.Fatal(err)
			}
			sc := s.LiveScore()
			got := golden{s.AssignHash(), s.Directory().Current().AssignHash(), sc.EdgeCut, sc.Comm, s.Stats().Edges}
			if got != tc.want {
				t.Errorf("got %#v, want %#v", got, tc.want)
			}
		})
	}
}
