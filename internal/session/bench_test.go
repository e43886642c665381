package session

import (
	"sync"
	"testing"
	"time"

	"paragon/internal/dyn"
	"paragon/internal/gen"
	"paragon/internal/graph"
	"paragon/internal/paragon"
	"paragon/internal/partition"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

var (
	churnBenchOnce sync.Once
	churnBenchG    *graph.Graph
	churnBenchP    *partition.Partitioning
)

// BenchmarkSessionChurn is the in-tree mirror of bench/'s
// churn_rmat200k_k32 (same base graph, decomposition, schedule and session
// config; bench/ is where a change is judged, this is where it is
// profiled): RMAT 200 k / 1.2 M at seed 42 placed by stream.LDG into
// k = 32 under uniform costs, then 600 batches of 2 000 edge adds, 800
// removes and 40 degree-3 arrivals, epochs at lag 2 and cooldown 4 with
// two shuffles each. An iteration is one whole schedule and its Drain;
// launch-ms and join-ms are the mean latency of the batches that launched
// and that joined an epoch, the stall refine_s sums.
func BenchmarkSessionChurn(b *testing.B) {
	const (
		n, m, k = 200_000, 1_200_000, 32
		batches = 600
	)
	churnBenchOnce.Do(func() {
		churnBenchG = gen.RMAT(n, m, 0.57, 0.19, 0.19, 42)
		churnBenchP = stream.LDG(churnBenchG, k, stream.DefaultOptions())
	})
	load := dyn.WorkloadConfig{Adds: 2000, Removes: 800, Arrivals: 40, ArrivalDegree: 3}
	cfg := Config{
		Capacity:        n + batches*int32(load.Arrivals),
		Trigger:         dyn.DefaultTrigger(),
		EpochLagBatches: 2,
		CooldownBatches: 4,
		Costs:           topology.UniformMatrix(k),
		Refine:          paragon.DefaultConfig(),
	}
	cfg.Refine.Shuffles = 2
	cfg.Refine.Seed = 44
	var launch, join time.Duration
	var launches, joins int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(churnBenchG, churnBenchP, cfg)
		if err != nil {
			b.Fatal(err)
		}
		w := dyn.NewWorkload(43, load)
		for j := 0; j < batches; j++ {
			batch := w.Next(s.Source())
			t := time.Now()
			st, err := s.Ingest(batch)
			d := time.Since(t)
			if err != nil {
				b.Fatal(err)
			}
			switch {
			case st.Joined:
				join, joins = join+d, joins+1
			case st.Launched:
				launch, launches = launch+d, launches+1
			}
		}
		t := time.Now()
		joined, err := s.Drain()
		if err != nil {
			b.Fatal(err)
		}
		if joined {
			join, joins = join+time.Since(t), joins+1
		}
	}
	b.ReportMetric(launch.Seconds()*1e3/float64(max(launches, 1)), "launch-ms")
	b.ReportMetric(join.Seconds()*1e3/float64(max(joins, 1)), "join-ms")
}
