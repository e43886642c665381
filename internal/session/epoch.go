package session

import (
	"errors"
	"fmt"

	"paragon/internal/detrand"
	"paragon/internal/dir"
	"paragon/internal/dyn"
	"paragon/internal/faultsim"
	"paragon/internal/obs"
	"paragon/internal/paragon"
	"paragon/internal/partition"
	"paragon/internal/stream"
)

// This file is the session's state machine: batch ingestion on the
// caller's goroutine, epoch launch/join at schedule-determined points.
//
//	INGESTING ──trigger fires──▶ EPOCH IN FLIGHT ──join batch──▶ MERGE
//	    ▲                                                      │
//	    └───────commit (publish ok) / abort (fault) ◀──────────┘
//
// Between launch and join the epoch goroutine exclusively owns the
// snapshot-side state (pidx, ix, snap); the ingest side keeps mutating
// only the live-side state (the overlay g, live, loads, score). The join receives
// ownership back through the result channel (a happens-before edge), so
// there is no lock and no timing-dependent interleaving anywhere.

// Ingest applies one batch: churn ops first, then arrivals, exactly in
// batch order. If an in-flight epoch's join point has been reached it is
// merged (blocking until the refinement finishes) before the batch is
// applied, and after the batch the trigger policy may launch a new
// epoch. Returns what happened, for the caller's bookkeeping.
func (s *Session) Ingest(b dyn.Batch) (BatchStats, error) {
	seq := s.st.Batches
	s.st.Batches++
	s.clock.Advance(1) // one virtual tick per ingested batch
	st := BatchStats{Seq: seq}

	if s.run != nil && seq >= s.run.joinBatch {
		committed, err := s.joinEpoch(seq)
		if err != nil {
			return st, err
		}
		st.Joined = true
		st.Committed = committed
	}

	for _, op := range b.Ops {
		added, removed := s.applyOp(op)
		switch {
		case added:
			st.OpsApplied++
			st.EdgesAdded++
		case removed:
			st.OpsApplied++
			st.EdgesRemoved++
		}
	}
	for _, a := range b.Arrivals {
		if s.placeArrival(a) {
			st.Arrivals++
		} else {
			st.Rejected++
		}
	}

	s.st.OpsApplied += int64(st.OpsApplied)
	s.st.EdgesAdded += int64(st.EdgesAdded)
	s.st.EdgesRemoved += int64(st.EdgesRemoved)
	s.st.Arrivals += int64(st.Arrivals)
	s.st.ArrivalsRejected += int64(st.Rejected)
	s.mx.batches.Inc()
	s.mx.ops.Add(int64(st.OpsApplied))
	s.mx.edgesAdded.Add(int64(st.EdgesAdded))
	s.mx.edgesRemoved.Add(int64(st.EdgesRemoved))
	s.mx.arrivals.Add(int64(st.Arrivals))
	s.mx.rejected.Add(int64(st.Rejected))
	s.mx.activeGauge.Set(float64(s.active))
	s.mx.edgesGauge.Set(float64(s.g.NumEdges()))

	if s.tr != nil {
		s.tr.Emit(obs.Event{Kind: obs.KindIngestBatch, Round: int32(seq),
			A: s.active, N: int64(st.OpsApplied), M: int64(st.Arrivals), X: partition.SkewnessOf(s.loads)})
	}

	if s.run == nil && seq >= s.cooldownUntil {
		d := s.cfg.Trigger.EvaluateScore(s.LiveScore(), s.costs.Real(s.alpha*s.baseComm), s.g.NumEdges(), s.churned)
		st.Trigger = d
		if d.Refine {
			s.launchEpoch(seq, d)
			st.Launched = true
		}
	}
	return st, nil
}

// Drain joins any in-flight epoch (blocking until it finishes) without
// ingesting anything. Call it at the end of a schedule so the final
// session state is independent of where the schedule stopped relative
// to the epoch lag.
func (s *Session) Drain() (committed bool, err error) {
	if s.run == nil {
		return false, nil
	}
	return s.joinEpoch(s.st.Batches)
}

// applyOp applies one churn event to the live graph and the maintained
// score. Invalid ops (inactive or out-of-range endpoints, self-loops)
// and no-ops (adding an existing edge, removing an absent one) are
// skipped — the generator draws against the live view, but a schedule
// replayed onto a different base is still safe.
func (s *Session) applyOp(op dyn.EdgeOp) (added, removed bool) {
	u, v := op.U, op.V
	if u == v || u < 0 || v < 0 || u >= s.active || v >= s.active {
		return false, false
	}
	if op.Add {
		w := max(op.W, 1)
		if ok, _ := s.g.AddEdge(u, v, w); !ok { // the checks above leave no error to report
			return false, false
		}
		s.scoreEdge(u, v, w, +1)
		s.markChurned(u, v)
		return true, false
	}
	w, ok := s.g.RemoveEdge(u, v)
	if !ok {
		return false, false
	}
	s.scoreEdge(u, v, w, -1)
	s.markChurned(u, v)
	return false, true
}

// scoreEdge folds one edge's cut/comm contribution in (sign +1) or out
// (sign -1) of the maintained score, using ComputeScore's ordered
// convention c[p(min)][p(max)] so the incremental sum matches a full
// recompute.
func (s *Session) scoreEdge(u, v, w int32, sign int) {
	pu, pv := s.live[u], s.live[v]
	if pu == pv {
		return
	}
	lo, hi := u, v
	if hi < lo {
		lo, hi = hi, lo
	}
	sw := int64(sign) * int64(w)
	s.cut += sw
	s.comm += sw * s.costs.At(s.live[lo], s.live[hi])
}

// markChurned records both endpoints dirty for the next epoch's
// Index.Retarget and counts the change against the trigger policy.
func (s *Session) markChurned(u, v int32) {
	s.churned++
	s.markDirty(u)
	s.markDirty(v)
}

func (s *Session) markDirty(v int32) {
	if !s.dirty.Get(v) {
		s.dirty.Set(v)
		s.dirtyList = append(s.dirtyList, v)
	}
}

// placeArrival activates the next vertex id and places it with the
// configured stream rule against the live loads. Returns false when the
// capacity is exhausted (the arrival is dropped and counted).
func (s *Session) placeArrival(a dyn.Arrival) bool {
	if s.active >= s.cap {
		return false
	}
	v := s.active

	// Resolve the arrival's valid neighbors: active, distinct, not v. The
	// two lists live in session scratch: the placer reads them and returns,
	// and the edges are copied into the overlay below.
	nbrs, wts := s.nbrBuf[:0], s.wtBuf[:0]
	for i, u := range a.Neighbors {
		if u < 0 || u >= s.active || u == v {
			continue
		}
		dup := false
		for _, prev := range nbrs {
			if prev == u {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		w := int32(1)
		if i < len(a.Weights) && a.Weights[i] > 0 {
			w = a.Weights[i]
		}
		nbrs = append(nbrs, u)
		wts = append(wts, w)
	}
	s.nbrBuf, s.wtBuf = nbrs, wts // keep what the appends grew

	// Streaming capacity from the live totals: the batch partitioners'
	// ⌊(1+eps)·⌈W/k⌉⌋, except W grows with the stream.
	const vw = 1
	capacity := max(partition.LoadBound(s.totalW+vw, s.k, s.cfg.Eps), 1)
	penalty := stream.FennelPenalty(s.k, s.g.TotalEdgeWeight(), s.totalW+vw)
	best := s.placer.Place(nbrs, wts, s.live, s.loads, vw, capacity, penalty)

	s.active++
	s.g.SetVertex(v, vw, 1)
	s.live[v] = best
	s.loads[best] += vw
	s.totalW += vw
	s.placed = append(s.placed, v)
	s.markDirty(v)

	for i, u := range nbrs {
		w := wts[i]
		s.g.AddEdge(v, u, w) // u is active, distinct and not v: always added
		s.scoreEdge(v, u, w, +1)
		s.churned++
		s.markDirty(u)
	}
	return true
}

// launchEpoch freezes the live graph, hands the snapshot-side state to
// one background goroutine running the index-reusing refinement, and
// returns immediately — ingest continues concurrently until the join
// batch.
func (s *Session) launchEpoch(seq int64, d dyn.Decision) {
	launch := s.st.EpochsLaunched
	s.st.EpochsLaunched++
	s.mx.launches.Inc()

	// Catch the index up with arrivals since the last launch: each was
	// isolated in the previous snapshot, so Move is a pure bucket
	// transfer; Retarget below repairs ext/incident for every dirty
	// vertex against the new snapshot.
	for _, v := range s.placed {
		s.ix.Move(v, s.live[v])
	}
	s.snap = s.g.Materialize()
	if err := s.ix.Retarget(s.snap, s.dirtyList); err != nil {
		// Impossible by construction (same capacity); fail loudly in
		// tests rather than corrupting silently.
		panic(fmt.Sprintf("session: retarget: %v", err))
	}
	for _, v := range s.dirtyList {
		s.dirty.Unset(v)
	}
	s.dirtyList = s.dirtyList[:0]
	s.placed = s.placed[:0]
	copy(s.pre, s.pidx.Assign)

	refCfg := s.cfg.Refine
	refCfg.Seed = int64(detrand.Fin64(uint64(s.cfg.Refine.Seed) ^ detrand.Fin64(uint64(launch)+0x51)))
	refCfg.Trace = nil // the tracer is single-goroutine; the session owns it
	refCfg.Metrics = s.cfg.Metrics
	refCfg.Fabric = nil
	if s.cfg.FaultRate > 0 {
		refCfg.Fabric = faultsim.NewInjector(faultsim.Config{
			Seed: int64(detrand.Fin64(uint64(s.cfg.FaultSeed) ^ detrand.Fin64(uint64(launch)+0xe7))),
			Rate: s.cfg.FaultRate,
		})
	}

	s.tr.Emit(obs.Event{Kind: obs.KindEpochTrigger, Round: int32(seq),
		A: int32(d.Code), X: triggerValue(d)})
	s.tr.Emit(obs.Event{Kind: obs.KindEpochLaunch, Round: int32(seq),
		A: int32(launch), N: s.snap.NumEdges()})

	run := &epochRun{
		launch:    launch,
		joinBatch: seq + int64(s.cfg.EpochLagBatches),
		done:      make(chan epochResult, 1),
	}
	s.run = run
	g, p, c, ix := s.snap, s.pidx, s.cfg.Costs, s.ix
	go func() {
		// Between this launch and the join receive the goroutine
		// exclusively owns pidx/ix (the ingest side never touches them
		// while run != nil); the channel send/receive pair is the
		// happens-before edge of the handoff.
		st, err := paragon.RefineIndexed(g, p, c, refCfg, ix)
		run.done <- epochResult{st: st, err: err}
	}()
}

// triggerValue picks the metric that fired for the epoch_trigger event.
func triggerValue(d dyn.Decision) float64 {
	switch d.Code {
	case 0:
		return d.Skew
	case 1:
		return d.Churn
	case 2:
		return d.Staleness
	}
	return 0
}

// joinEpoch blocks until the in-flight epoch finishes, then merges it:
// diff the refined assignment against the launch state, publish the
// merged live assignment through the directory, and either commit
// (apply the diff to the live side, reset the trigger baseline) or
// abort (roll the index back; the previous directory epoch stays live).
func (s *Session) joinEpoch(seq int64) (committed bool, err error) {
	run := s.run
	res := <-run.done
	s.run = nil
	s.cooldownUntil = seq + int64(s.cfg.CooldownBatches)
	s.clock.Advance(res.st.Faults.VirtualTicks)

	// The refined moves: everything the epoch changed relative to its
	// launch snapshot. Vertices placed during the epoch are disjoint
	// from this set — they were inactive in the snapshot.
	diff := s.diffBuf[:0]
	for v := int32(0); v < s.cap; v++ {
		if s.pidx.Assign[v] != s.pre[v] {
			diff = append(diff, v)
		}
	}
	s.diffBuf = diff[:0]

	abort := func() {
		for _, v := range diff {
			s.ix.Move(v, s.pre[v])
		}
		s.st.EpochsAborted++
		s.mx.aborts.Inc()
		s.tr.Emit(obs.Event{Kind: obs.KindEpochMerge, Round: int32(seq),
			A: 0, N: s.dirc.Epoch(), M: int64(len(diff))})
	}

	if res.err != nil {
		abort()
		return false, fmt.Errorf("session: epoch %d refinement: %w", run.launch, res.err)
	}

	// Merge: the live assignment (including placements made while the
	// epoch ran) overlaid with the refined moves, published as one
	// atomic directory epoch.
	merged := s.merged
	copy(merged, s.live)
	for _, v := range diff {
		merged[v] = s.pidx.Assign[v]
	}
	if _, perr := s.dirc.PublishAssign(merged); perr != nil {
		if errors.Is(perr, dir.ErrPublishFailed) {
			abort()
			return false, nil
		}
		abort()
		return false, fmt.Errorf("session: epoch %d publish: %w", run.launch, perr)
	}

	// Commit: fold the refined moves into the live side, the score edge by edge.
	for _, v := range diff {
		w := int64(s.g.VertexWeight(v))
		from, to := s.live[v], s.pidx.Assign[v]
		s.loads[from] -= w
		s.loads[to] += w
		for _, h := range s.g.Row(v) {
			s.scoreEdge(v, h.To, h.W, -1)
		}
		s.live[v] = to
		for _, h := range s.g.Row(v) {
			s.scoreEdge(v, h.To, h.W, +1)
		}
	}
	s.baseComm = s.comm
	s.churned = 0
	s.st.EpochsCommitted++
	s.st.EpochMoves += int64(len(diff))
	s.mx.commits.Inc()
	s.mx.moves.Add(int64(len(diff)))
	s.tr.Emit(obs.Event{Kind: obs.KindEpochMerge, Round: int32(seq),
		A: 1, N: s.dirc.Epoch(), M: int64(len(diff)), X: s.costs.Real(s.alpha * s.comm)})
	return true, nil
}
