// Package session is the streaming-ingest repartitioning daemon core:
// the long-running form of the one-shot Refine call. A Session owns a
// live, mutable graph (seeded from a base snapshot, grown by batched
// edge churn and vertex arrivals), places arriving vertices with the
// stream package's DG/LDG/Fennel rules, tracks the Eq. 2–4 score of the
// live decomposition incrementally, and — when the dyn.TriggerPolicy
// fires — launches an incremental refinement epoch that reuses the live
// partition.Index via Index.Retarget + RefineIndexed instead of
// rebuilding from scratch. Committed epochs publish atomically through
// the internal/dir epoch directory, so concurrent lookups never observe
// a torn mapping; an epoch killed by the fault fabric (refinement crash
// faults, or a dropped directory publish) aborts, rolls the index back,
// and leaves the previous epoch live.
//
// Determinism contract (DESIGN.md §18): ingestion runs on the caller's
// goroutine and a refinement epoch runs on one background goroutine,
// but every interaction between the two happens at schedule-determined
// points — an epoch launched after batch L is joined (blocking if it
// hasn't finished) at the start of batch L+EpochLagBatches, never
// polled. All progress is stamped on the faultsim virtual clock; wall
// time is never read. A (seed, schedule) pair therefore replays
// bit-identically — live assignment, directory epochs, trace bytes,
// metrics — at every Config.Workers value and under any real-time
// interleaving.
package session

import (
	"errors"
	"fmt"

	"paragon/internal/detrand"
	"paragon/internal/dir"
	"paragon/internal/dyn"
	"paragon/internal/faultsim"
	"paragon/internal/graph"
	"paragon/internal/obs"
	"paragon/internal/paragon"
	"paragon/internal/partition"
	"paragon/internal/stream"
)

// Config tunes a Session. The zero value of every field has a usable
// default except Costs, which is required.
type Config struct {
	// Capacity is the vertex-id space ceiling: the session pre-sizes
	// every structure to it and activates ids [n0, Capacity) as arrivals
	// come in. 0 means the base graph's size (no arrivals possible).
	Capacity int32
	// Eps is the placement imbalance tolerance for arriving vertices
	// (default 0.02, the paper's setting).
	Eps float64
	// Placement selects the arrival placement rule (default PlaceDG;
	// cmd/paragond's -placement flag defaults to ldg).
	Placement stream.PlaceRule
	// Trigger decides when to launch a refinement epoch; the zero value
	// uses dyn's defaults (skew 1.1, churn 5%, staleness off).
	Trigger dyn.TriggerPolicy
	// EpochLagBatches is the deterministic join point: an epoch launched
	// after batch L is joined at the start of batch L+lag (default 2).
	// Larger lags give refinement more concurrent wall time per epoch at
	// the price of merging a staler result.
	EpochLagBatches int
	// CooldownBatches is the minimum number of batches between an epoch
	// join and the next launch (default 4), so a trigger the refinement
	// cannot clear does not relaunch every batch.
	CooldownBatches int
	// Refine configures the per-epoch refinement. The session overrides
	// the ownership fields — Trace is forced nil (the session emits its
	// own events and publishes each join to its directory), Fabric is
	// replaced by the session's per-epoch injector, and Seed is folded
	// with the epoch launch index so each epoch draws a fresh
	// deterministic schedule. Zero fields get the paper's defaults
	// (paragon.Config.WithDefaults), except Shuffles, where 0 means 2 —
	// epochs run often; nine rounds each would starve ingest — and a
	// negative value means none.
	Refine paragon.Config
	// Costs is the k×k relative communication cost matrix (required).
	Costs [][]float64
	// FaultRate, with FaultSeed, drives the session's fault layer: each
	// epoch's refinement and each directory publish consult independent
	// deterministic injectors derived from (FaultSeed, launch index).
	FaultRate float64
	FaultSeed int64
	// Trace, when non-nil, receives ingest_batch / epoch_* events. The
	// session emits only from the ingest goroutine at deterministic
	// points, so the stream is bit-identical at every Workers value.
	Trace *obs.Tracer
	// Metrics, when non-nil, accumulates ingest_*/epoch_* counters plus
	// the refinement and directory metrics of the epochs.
	Metrics *obs.Registry
}

// epochResult crosses the epoch goroutine's channel exactly once.
type epochResult struct {
	st  paragon.Stats
	err error
}

// epochRun is one in-flight refinement epoch.
type epochRun struct {
	launch    int64 // launch index (0-based)
	joinBatch int64 // batch seq whose ingest starts with the join
	done      chan epochResult
}

// Stats is a point-in-time snapshot of a session's counters.
type Stats struct {
	Batches          int64
	OpsApplied       int64
	EdgesAdded       int64
	EdgesRemoved     int64
	Arrivals         int64
	ArrivalsRejected int64
	EpochsLaunched   int64
	EpochsCommitted  int64
	EpochsAborted    int64
	EpochMoves       int64 // vertices moved by committed epochs
	DirectoryEpoch   int64
	Active           int32
	Edges            int64
	VirtualTicks     int64
	Live             partition.Score // live Eq. 2–4 score (migration 0)
}

// BatchStats reports what one Ingest call did.
type BatchStats struct {
	Seq          int64
	OpsApplied   int
	EdgesAdded   int
	EdgesRemoved int
	Arrivals     int
	Rejected     int
	Joined       bool // an epoch merged (or aborted) at this batch's entry
	Committed    bool // the joined epoch committed a directory publish
	Launched     bool // a new epoch launched after this batch
	Trigger      dyn.Decision
}

// sessionMetrics bundles the nil-safe obs handles.
type sessionMetrics struct {
	batches, ops, edgesAdded, edgesRemoved *obs.Counter
	arrivals, rejected                     *obs.Counter
	launches, commits, aborts, moves       *obs.Counter
	activeGauge, edgesGauge                *obs.Gauge
}

func newSessionMetrics(r *obs.Registry) sessionMetrics {
	return sessionMetrics{
		batches:      r.Counter("ingest_batches_total", "batches ingested by the streaming session"),
		ops:          r.Counter("ingest_ops_total", "churn ops applied (adds + removes that changed the graph)"),
		edgesAdded:   r.Counter("ingest_edges_added_total", "edges added by churn ops and arrivals"),
		edgesRemoved: r.Counter("ingest_edges_removed_total", "edges removed by churn ops"),
		arrivals:     r.Counter("ingest_arrivals_total", "vertices activated by arrivals"),
		rejected:     r.Counter("ingest_arrivals_rejected_total", "arrivals dropped because capacity was exhausted"),
		launches:     r.Counter("epoch_launches_total", "refinement epochs launched"),
		commits:      r.Counter("epoch_commits_total", "refinement epochs committed through the directory"),
		aborts:       r.Counter("epoch_aborts_total", "refinement epochs aborted (faults or failed publish)"),
		moves:        r.Counter("epoch_moves_total", "vertices moved by committed epochs"),
		activeGauge:  r.Gauge("session_active_vertices", "currently active vertices of the live graph"),
		edgesGauge:   r.Gauge("session_live_edges", "edges of the live graph"),
	}
}

// Session is the daemon core. Not safe for concurrent use: Ingest,
// Drain, and the accessors must all be called from one goroutine (the
// ingest loop); only Directory().Lookup is safe to call from anywhere.
type Session struct {
	cfg   Config
	k     int32
	n0    int32
	cap   int32
	costs *partition.Costs // cfg.Costs on the objective grid
	alpha int64            // cfg.Refine.Alpha on it

	// Live graph (ingest-side truth) over the id space [0, cap); ids >=
	// active are inactive: weight 0, no edges, placeholder partition —
	// invisible to scoring and never moved by refinement.
	active int32
	g      *graph.Overlay

	// Live decomposition and its incrementally maintained score.
	live   []int32
	loads  []int64
	totalW int64
	cut    int64
	comm   int64 // raw Σ w·C on the grid (Score.Comm = alpha·comm)

	// Trigger state.
	baseComm int64 // comm reference of the last committed epoch
	churned  int64 // churned edges since the last committed epoch

	// Epoch-side state: owned by the ingest goroutine while run == nil,
	// owned exclusively by the epoch goroutine between launch and join.
	pidx      *partition.Partitioning
	ix        *partition.Index
	snap      *graph.Graph
	run       *epochRun
	pre       []int32 // assignment at epoch launch, for diff/rollback
	merged    []int32 // publish scratch
	diffBuf   []int32 // refined-move list scratch
	dirty     *partition.Bitset
	dirtyList []int32
	placed    []int32 // vertices placed since the last launch

	nbrBuf, wtBuf []int32 // placeArrival's resolved-neighbor scratch

	cooldownUntil int64
	st            Stats // the counters Stats reports, incremented in place

	clock  *faultsim.Clock
	dirc   *dir.Directory
	placer *stream.Placer
	tr     *obs.Tracer
	mx     sessionMetrics
}

// New builds a session over the base graph g0 and its initial
// decomposition p0 (len(p0.Assign) == g0.NumVertices(), K >= 2).
// Vertex ids [g0.NumVertices(), cfg.Capacity) start inactive with the
// placeholder partition id % K, which is also what directory lookups
// return for them until they arrive.
func New(g0 *graph.Graph, p0 *partition.Partitioning, cfg Config) (*Session, error) {
	n0 := g0.NumVertices()
	if p0 == nil || int32(len(p0.Assign)) != n0 {
		return nil, errors.New("session: p0 does not cover g0")
	}
	k := p0.K
	if k < 2 {
		return nil, fmt.Errorf("session: k = %d, need >= 2", k)
	}
	costs, err := partition.CheckCosts(cfg.Costs, k)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	capN := cfg.Capacity
	if capN == 0 {
		capN = n0
	}
	if capN < n0 {
		return nil, fmt.Errorf("session: capacity %d below base graph size %d", capN, n0)
	}
	if cfg.Eps == 0 {
		cfg.Eps = 0.02
	}
	if cfg.EpochLagBatches <= 0 {
		cfg.EpochLagBatches = 2
	}
	if cfg.CooldownBatches <= 0 {
		cfg.CooldownBatches = 4
	}
	if cfg.Refine.Shuffles == 0 {
		cfg.Refine.Shuffles = 2
	}
	cfg.Refine = cfg.Refine.WithDefaults(k)
	if err := partition.CheckObjective(g0, costs, cfg.Refine.Alpha); err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}

	s := &Session{
		cfg:    cfg,
		k:      k,
		n0:     n0,
		cap:    capN,
		costs:  costs,
		alpha:  partition.Alpha(cfg.Refine.Alpha),
		active: n0,
		live:   make([]int32, capN),
		loads:  make([]int64, k),
		pre:    make([]int32, capN),
		merged: make([]int32, capN),
		dirty:  partition.NewBitset(capN),
		clock:  faultsim.NewClock(),
		placer: stream.NewPlacer(cfg.Placement, k),
		tr:     cfg.Trace,
		mx:     newSessionMetrics(cfg.Metrics),
	}
	vwgt, vsize := make([]int32, capN), make([]int32, capN)
	for v := int32(0); v < n0; v++ {
		vwgt[v], vsize[v] = g0.VertexWeight(v), g0.VertexSize(v)
		s.live[v] = p0.Assign[v]
		s.loads[p0.Assign[v]] += int64(vwgt[v])
		s.totalW += int64(vwgt[v])
	}
	for v := n0; v < capN; v++ {
		s.live[v] = v % k // placeholder rank for not-yet-arrived ids
	}
	// The capacity-padded base: g0, then isolated weight-0 ids (a default
	// weight of 1 would hand the refiner phantom unit weights). It is both
	// the live graph's starting copy and the first snapshot.
	s.snap = graph.FromSymmetricRows(capN, vwgt, vsize,
		func(v int32) int32 {
			if v < n0 {
				return g0.Degree(v)
			}
			return 0
		},
		func(v int32, to, w []int32) {
			if v < n0 {
				copy(to, g0.Neighbors(v))
				copy(w, g0.EdgeWeights(v))
			}
		}, cfg.Refine.Workers)
	s.g = graph.NewOverlay(s.snap)
	s.recomputeLive()
	s.baseComm = s.comm

	s.tr.SetClock(s.clock.Now)

	// Epoch-side mirror: the persistent index over the padded snapshot.
	s.pidx = &partition.Partitioning{K: k, Assign: append([]int32(nil), s.live...)}
	s.ix = partition.BuildIndex(s.snap, s.pidx)

	// The serving layer, on the session clock, with its own fault
	// injector so dropped publishes abort epochs deterministically.
	dopt := dir.Options{
		Clock:   s.clock,
		Trace:   cfg.Trace,
		Metrics: cfg.Metrics,
	}
	if cfg.FaultRate > 0 {
		in := faultsim.NewInjector(faultsim.Config{
			Seed: int64(detrand.Fin64(uint64(cfg.FaultSeed) ^ 0xd19c)),
			Rate: cfg.FaultRate,
		})
		in.Observe(cfg.Metrics)
		dopt.Fabric = in
	}
	d, err := dir.New(s.live, k, dopt)
	if err != nil {
		return nil, fmt.Errorf("session: directory: %w", err)
	}
	s.dirc = d
	return s, nil
}

// recomputeLive derives the cut and raw comm sum from the live graph
// in one ascending-vertex sweep — O(|E|), run at construction only; from
// then on every edge op, arrival and committed move folds its own delta
// in (scoreEdge).
func (s *Session) recomputeLive() {
	var cut, comm int64
	for v := int32(0); v < s.active; v++ {
		pv := s.live[v]
		row := s.costs.Row(pv)
		for _, h := range s.g.Row(v) {
			if h.To <= v {
				continue
			}
			if pu := s.live[h.To]; pu != pv {
				cut += int64(h.W)
				comm += int64(h.W) * row[pu]
			}
		}
	}
	s.cut = cut
	s.comm = comm
}

// LiveScore returns the incrementally maintained Eq. 2–4 score of the
// live decomposition (migration cost 0 by definition — the live state is
// its own reference).
func (s *Session) LiveScore() partition.Score {
	comm := s.alpha * s.comm
	return partition.Score{EdgeCut: s.cut, Comm: comm, CommCost: s.costs.Real(comm), Skewness: partition.SkewnessOf(s.loads)}
}

// Directory returns the epoch-versioned serving layer; its Lookup is
// safe for concurrent use from any goroutine.
func (s *Session) Directory() *dir.Directory { return s.dirc }

// Stats snapshots the session counters.
func (s *Session) Stats() Stats {
	st := s.st
	st.DirectoryEpoch = s.dirc.Epoch()
	st.Active = s.active
	st.Edges = s.g.NumEdges()
	st.VirtualTicks = s.clock.Now()
	st.Live = s.LiveScore()
	return st
}

// AssignHash folds the live assignment, the active count, and the
// committed-epoch count into one FNV-1a word — the replay-identity
// fingerprint the daemon CLI prints and the benches cmp across worker
// counts.
func (s *Session) AssignHash() uint64 {
	h := uint64(detrand.FNVOffset64)
	for _, a := range s.live {
		h = detrand.FNVFold64(h, uint64(uint32(a)))
	}
	h = detrand.FNVFold64(h, uint64(uint32(s.active)))
	return detrand.FNVFold64(h, uint64(s.st.EpochsCommitted))
}

// Source returns the live graph bounded to the active prefix, the view
// the workload generator draws churn against, in the overlay's row order.
// The view is only valid on the ingest goroutine between Ingest calls.
func (s *Session) Source() dyn.Source { return liveView{s} }

type liveView struct{ s *Session }

func (v liveView) NumVertices() int32        { return v.s.active }
func (v liveView) Degree(u int32) int32      { return int32(len(v.s.g.Row(u))) }
func (v liveView) Neighbor(u, i int32) int32 { return v.s.g.Row(u)[i].To }
