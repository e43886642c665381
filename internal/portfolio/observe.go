package portfolio

import (
	"paragon/internal/obs"
	"paragon/internal/paragon"
)

// emitObservability writes the run's trace events and metrics from its
// Stats — the record; both are views of it — on the coordinator after the
// join, in member-id order: the portfolio analogue of the scheduler's
// task-order commit discipline. Nothing emitted depends on Workers or on
// any stopwatch, so trace and metrics files are byte-identical across
// worker counts. A nil tracer or registry makes its half a no-op.
func emitObservability(cfg paragon.Config, st *Stats) {
	applied := int32(0)
	if st.CombineApplied {
		applied = 1
	}
	if tr := cfg.Trace; tr != nil {
		tr.Emit(obs.Event{Kind: obs.KindPortfolioStart, Round: -1,
			N: int64(st.Size), M: int64(cfg.Portfolio.CombineTop)})
		for m, ms := range st.Members {
			if ms.Forfeited {
				tr.Emit(obs.Event{Kind: obs.KindMemberForfeit, Round: -1, A: int32(m)})
				continue
			}
			tr.Emit(obs.Event{Kind: obs.KindMemberRefined, Round: -1, A: int32(m),
				N: int64(ms.Moves), X: ms.Score.Cost()})
		}
		if st.CombineDiff > 0 || st.CombineMoves > 0 {
			tr.Emit(obs.Event{Kind: obs.KindPortfolioCombine, Round: -1,
				A: int32(st.CombinePairs), B: int32(st.CombineWaves), N: int64(st.CombineDiff), M: int64(st.CombineMoves), X: st.CombinedScore.Cost()})
		}
		tr.Emit(obs.Event{Kind: obs.KindPortfolioSelect, Round: -1,
			A: int32(st.Winner), B: applied, X: st.SelectedScore.Cost()})
	}
	r := cfg.Metrics
	r.Counter("portfolio_members_total", "portfolio members configured (forfeits included)").Add(int64(st.Size))
	r.Counter("portfolio_forfeits_total", "members excluded by the fault fabric before running").Add(int64(st.Forfeits))
	memberMoves := r.Histogram("portfolio_member_moves", "kept moves per surviving member", obs.PowersOfTwoBounds(20))
	for _, ms := range st.Members {
		if !ms.Forfeited {
			memberMoves.Observe(int64(ms.Moves))
		}
	}
	r.Counter("portfolio_combine_diff_vertices_total", "vertices the two best members disagreed on").Add(int64(st.CombineDiff))
	r.Counter("portfolio_combine_pairs_total", "pair refinements the combine operator's rounds ran").Add(int64(st.CombinePairs))
	r.Counter("portfolio_combine_waves_total", "wave barriers the combine operator's rounds ran").Add(int64(st.CombineWaves))
	r.Counter("portfolio_combine_moves_total", "moves kept by the combine operator's restricted rounds").Add(int64(st.CombineMoves))
	r.Counter("portfolio_combine_applied_total", "combine overlays that beat the best member and were selected").Add(int64(applied))
	r.Gauge("portfolio_winner", "selected member id of the last run (-1 if all forfeited)").Set(float64(st.Winner))
	r.Gauge("portfolio_selected_cost", "Eq. 2+3 cost of the selected decomposition").Set(st.SelectedScore.Cost())
}
