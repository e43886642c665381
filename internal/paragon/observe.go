package paragon

// Observability plumbing (DESIGN.md §13). A Refine call with
// Config.Trace / Config.Metrics set emits a structured event stream and
// populates a metrics registry; nil ones are no-ops at every call, so no
// site is guarded. Only the coordinator goroutine emits: the worker pool
// reports through task-indexed results, from which the wave barrier
// (schedule.go's commitWave) emits each pair's event in task order. That
// discipline is what keeps the trace byte-identical across Config.Workers
// values.

import (
	"paragon/internal/obs"
)

// refineMetrics holds the live handles of the three metrics that have no
// Stats field to be published from — the per-pair and per-wave
// distributions and the wave count, observed at each wave barrier —
// resolved once per Refine. With a nil registry the zero value's nil
// handles make every operation a no-op (obs metrics are nil-safe).
type refineMetrics struct {
	waves     *obs.Counter
	pairMoves *obs.Histogram
	wavePairs *obs.Histogram
}

func newRefineMetrics(r *obs.Registry) refineMetrics {
	return refineMetrics{
		waves:     r.Counter("refine_waves_total", "tournament waves dispatched to the worker pool"),
		pairMoves: r.Histogram("refine_pair_moves", "kept moves per refined pair", obs.PowersOfTwoBounds(16)),
		wavePairs: r.Histogram("refine_wave_pairs", "pairs per tournament wave", obs.PowersOfTwoBounds(10)),
	}
}

// publishStats writes every metric that mirrors a Stats field, once, from
// the Stats a Refine is about to return: Stats is the record, the registry
// a view of it. Counters add and gauges overwrite, so a registry shared by
// successive calls (the session's epochs) accumulates the former and shows
// the last run's value of the latter.
func publishStats(r *obs.Registry, st *Stats) {
	r.Counter("refine_rounds_total", "refinement rounds committed (initial + shuffles)").Add(int64(st.Rounds))
	r.Counter("refine_pairs_total", "partition pairs refined").Add(int64(st.PairsRefined))
	r.Counter("refine_moves_total", "vertex moves kept across all rounds").Add(int64(st.Moves))
	r.Gauge("refine_gain", "total Eq. 5 gain the pairs claimed (the realized drop under a uniform matrix)").Set(st.Gain)

	r.Counter("ship_boundary_vertices_total", "k-hop boundary vertices shipped to group servers").Add(st.BoundaryShipped)
	r.Counter("ship_half_edges_total", "half-edges accompanying shipped vertices").Add(st.ShippedEdgeVolume)

	r.Counter("exchange_bytes_total", "location-exchange traffic, lost attempts included").Add(st.LocationExchangeBytes)
	r.Counter("exchange_retries_total", "region reduces retransmitted after a drop").Add(int64(st.Faults.ExchangeRetries))
	r.Counter("exchange_aborts_total", "region reduces abandoned beyond the retry budget").Add(int64(st.Faults.ExchangeAborts))

	r.Counter("fault_crashed_groups_total", "group servers crashed; their rounds' moves discarded").Add(int64(st.Faults.CrashedGroups))
	r.Counter("fault_straggler_drops_total", "groups dropped for exceeding the round timeout").Add(int64(st.Faults.StragglerDrops))
	r.Counter("fault_backoff_ticks_total", "virtual ticks spent backing off dropped reduces").Add(st.Faults.BackoffTicks)
	r.Gauge("fault_virtual_ticks", "total virtual time of the run").Set(float64(st.Faults.VirtualTicks))

	r.Counter("migrate_vertices_total", "vertices whose final owner changed").Add(st.MigratedVertices)
	r.Gauge("migrate_cost", "Eq. 3 migration cost vs. the input decomposition").Set(st.MigrationCost)
}
