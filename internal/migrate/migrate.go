// Package migrate implements the physical data migration service of §5:
// after a refinement changes vertex ownership, the graph data of every
// moved vertex (adjacency, weights) must be shipped from its old server
// to its new one. As in the paper, the service redistributes the graph
// data itself; application data attached to vertices is the user's
// responsibility, handled through save/restore hooks invoked around each
// move (the paper's example: a BFS implementation must carry each
// vertex's current distance along).
package migrate

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"paragon/internal/faultsim"
	"paragon/internal/graph"
	"paragon/internal/obs"
	"paragon/internal/partition"
)

// ErrAborted marks a migration that was killed mid-plan by the fault
// fabric. The transaction guarantee holds: every rank has been rolled
// back to its exact pre-plan state (vertex stores and, via the Restore
// hook, application context), so Verify against the old decomposition
// passes. Detect it with errors.Is.
var ErrAborted = errors.New("migration aborted; all ranks rolled back")

// Move is one vertex changing owner.
type Move struct {
	Vertex   int32
	From, To int32
}

// Plan is the full migration schedule derived from two decompositions.
type Plan struct {
	K     int32
	Moves []Move // sorted by (From, To, Vertex)
}

// NewPlan diffs the two decompositions and returns the migration plan.
func NewPlan(old, now *partition.Partitioning) (*Plan, error) {
	if old.K != now.K {
		return nil, fmt.Errorf("migrate: partition count changed %d -> %d", old.K, now.K)
	}
	if len(old.Assign) != len(now.Assign) {
		return nil, fmt.Errorf("migrate: vertex count changed %d -> %d", len(old.Assign), len(now.Assign))
	}
	p := &Plan{K: old.K}
	for v := range old.Assign {
		if old.Assign[v] != now.Assign[v] {
			p.Moves = append(p.Moves, Move{Vertex: int32(v), From: old.Assign[v], To: now.Assign[v]})
		}
	}
	sort.Slice(p.Moves, func(i, j int) bool {
		a, b := p.Moves[i], p.Moves[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Vertex < b.Vertex
	})
	return p, nil
}

// AppendBinary appends the canonical little-endian wire form of the
// plan to dst and returns dst: K, the move count, then one
// (vertex, from, to) int32 triple per move in plan order. This is the
// journal-record payload shape shared with the epoch-versioned partition
// directory (internal/dir), whose crash recovery replays these records;
// DecodePlan is its exact inverse.
func (p *Plan) AppendBinary(dst []byte) []byte {
	dst = appendInt32(dst, p.K)
	dst = appendInt32(dst, int32(len(p.Moves)))
	for _, m := range p.Moves {
		dst = appendInt32(dst, m.Vertex)
		dst = appendInt32(dst, m.From)
		dst = appendInt32(dst, m.To)
	}
	return dst
}

// DecodePlan parses the AppendBinary wire form. It is strict: short
// buffers, trailing bytes, and negative counts all fail, so a torn
// journal record can never decode into a half-plan.
func DecodePlan(data []byte) (*Plan, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("migrate: plan record truncated: %d bytes", len(data))
	}
	k := readInt32(data[0:])
	n := readInt32(data[4:])
	if k < 1 || n < 0 {
		return nil, fmt.Errorf("migrate: plan record corrupt: k=%d moves=%d", k, n)
	}
	if want := 8 + int64(n)*12; int64(len(data)) != want {
		return nil, fmt.Errorf("migrate: plan record is %d bytes, want %d for %d moves", len(data), want, n)
	}
	p := &Plan{K: k}
	if n > 0 {
		p.Moves = make([]Move, n)
	}
	for i := int32(0); i < n; i++ {
		off := 8 + int(i)*12
		p.Moves[i] = Move{
			Vertex: readInt32(data[off:]),
			From:   readInt32(data[off+4:]),
			To:     readInt32(data[off+8:]),
		}
	}
	return p, nil
}

func appendInt32(dst []byte, v int32) []byte {
	u := uint32(v)
	return append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
}

func readInt32(b []byte) int32 {
	return int32(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
}

// SendsFrom returns the moves departing a rank.
func (p *Plan) SendsFrom(rank int32) []Move {
	var out []Move
	for _, m := range p.Moves {
		if m.From == rank {
			out = append(out, m)
		}
	}
	return out
}

// ReceivesAt returns the moves arriving at a rank.
func (p *Plan) ReceivesAt(rank int32) []Move {
	var out []Move
	for _, m := range p.Moves {
		if m.To == rank {
			out = append(out, m)
		}
	}
	return out
}

// Volume returns the total vertex size (application data mass, Eq. 3's
// vs(v)) moved by the plan.
func (p *Plan) Volume(g *graph.Graph) int64 {
	var total int64
	for _, m := range p.Moves {
		total += int64(g.VertexSize(m.Vertex))
	}
	return total
}

// Cost returns the Eq. 3 migration cost of the plan under a cost matrix.
func (p *Plan) Cost(g *graph.Graph, c [][]float64) float64 {
	var total float64
	for _, m := range p.Moves {
		total += float64(g.VertexSize(m.Vertex)) * c[m.From][m.To]
	}
	return total
}

// VertexData is the graph payload of one vertex held by a rank store.
type VertexData struct {
	Adj     []int32
	Weights []int32
	VWeight int32
	VSize   int32
	App     []byte // opaque application context (saved/restored via hooks)
}

// Store is one rank's local vertex store.
type Store struct {
	Rank     int32
	Vertices map[int32]*VertexData
}

// BuildStores materializes per-rank stores from a graph and its current
// decomposition — the state of a running computation before migration.
func BuildStores(g *graph.Graph, p *partition.Partitioning) []*Store {
	stores := make([]*Store, p.K)
	for r := int32(0); r < p.K; r++ {
		stores[r] = &Store{Rank: r, Vertices: make(map[int32]*VertexData)}
	}
	for v := int32(0); v < g.NumVertices(); v++ {
		stores[p.Assign[v]].Vertices[v] = &VertexData{
			Adj:     append([]int32(nil), g.Neighbors(v)...),
			Weights: append([]int32(nil), g.EdgeWeights(v)...),
			VWeight: g.VertexWeight(v),
			VSize:   g.VertexSize(v),
		}
	}
	return stores
}

// AppContext lets the application carry per-vertex state across a
// migration, as §5 requires: Save is called on the sender before the
// vertex departs, Restore on the receiver after it arrives. Either hook
// may be nil.
type AppContext struct {
	Save    func(v int32) []byte
	Restore func(v int32, data []byte)
}

// Stats reports what one Execute did.
type Stats struct {
	MovedVertices int64
	MovedBytes    int64 // serialized payload bytes (12 bytes/edge + 8 fixed + app data)
	PerRankSent   []int64
	PerRankRecv   []int64
	Aborted       bool  // the run ended in a rollback (fault or plan error)
	RolledBack    int64 // vertices that departed and were restored to their sender
}

// Execute runs the migration: one goroutine per rank exchanges vertex
// payloads over channels according to the plan, invoking the application
// hooks around each move. Stores are updated in place.
func Execute(stores []*Store, plan *Plan, ctx AppContext) (Stats, error) {
	return ExecuteWith(stores, plan, ctx, nil)
}

// validatePlan rejects malformed plans before any store is touched:
// out-of-range ranks, degenerate moves, and conflicting moves (the same
// vertex scheduled twice). It returns the vertex -> plan-index map the
// abort machinery needs.
func validatePlan(plan *Plan, k int32) (map[int32]int, error) {
	index := make(map[int32]int, len(plan.Moves))
	for i, m := range plan.Moves {
		if m.From < 0 || m.From >= k || m.To < 0 || m.To >= k {
			return nil, fmt.Errorf("migrate: move %d sends vertex %d between out-of-range ranks %d -> %d (k=%d)", i, m.Vertex, m.From, m.To, k)
		}
		if m.From == m.To {
			return nil, fmt.Errorf("migrate: move %d is degenerate: vertex %d stays on rank %d", i, m.Vertex, m.From)
		}
		if j, dup := index[m.Vertex]; dup {
			return nil, fmt.Errorf("migrate: conflicting plan: vertex %d scheduled by moves %d and %d", m.Vertex, j, i)
		}
		index[m.Vertex] = i
	}
	return index, nil
}

// ExecOptions extends Execute with the fault fabric and the
// observability layer. All fields are optional.
type ExecOptions struct {
	// Fabric optionally injects migration-abort faults (nil = fault-free).
	Fabric faultsim.Fabric
	// Trace, when set, receives migration_plan / migration_commit /
	// migration_rollback events, emitted from the coordinator after the
	// per-rank goroutines have joined.
	Trace *obs.Tracer
	// Metrics, when set, accumulates migrate_* counters.
	Metrics *obs.Registry
}

// ExecuteWith is Execute under a fault fabric; see ExecuteOpts for the
// full option surface.
func ExecuteWith(stores []*Store, plan *Plan, ctx AppContext, fab faultsim.Fabric) (Stats, error) {
	return ExecuteOpts(stores, plan, ctx, ExecOptions{Fabric: fab})
}

// migrateMetrics resolves the registry handles ExecuteOpts touches; the
// zero value (nil registry) makes every operation a no-op.
type migrateMetrics struct {
	moved      *obs.Counter
	movedBytes *obs.Counter
	rolledBack *obs.Counter
	rollbacks  *obs.Counter
}

func newMigrateMetrics(r *obs.Registry) migrateMetrics {
	if r == nil {
		return migrateMetrics{}
	}
	return migrateMetrics{
		moved:      r.Counter("migrate_moved_vertices_total", "vertices committed to a new rank"),
		movedBytes: r.Counter("migrate_moved_bytes_total", "serialized payload bytes committed"),
		rolledBack: r.Counter("migrate_rolled_back_total", "departed vertices restored to their senders"),
		rollbacks:  r.Counter("migrate_rollbacks_total", "migrations that ended in a rollback"),
	}
}

// ExecuteOpts is Execute under a fault fabric and the observability
// layer. The migration is a transaction: senders journal every departing
// vertex, receivers stage arrivals without applying them, and only a
// fully-staged plan commits. If the fabric aborts the migration mid-plan
// (or a sender finds a vertex missing), every journaled departure is
// restored to its sender — application context included, via the Restore
// hook — and ExecuteOpts returns ErrAborted (or the protocol error).
// Either way Verify holds afterwards: against the new decomposition on
// commit, against the old one on rollback.
func ExecuteOpts(stores []*Store, plan *Plan, ctx AppContext, opts ExecOptions) (Stats, error) {
	fab := opts.Fabric
	tr := opts.Trace
	mx := newMigrateMetrics(opts.Metrics)
	k := int32(len(stores))
	if plan.K != k {
		return Stats{}, fmt.Errorf("migrate: plan for %d ranks, %d stores", plan.K, k)
	}
	moveIndex, err := validatePlan(plan, k)
	if err != nil {
		return Stats{}, err
	}
	tr.Emit(obs.Event{Kind: obs.KindMigrationPlan, Round: -1, N: int64(len(plan.Moves))})
	// The abort point is fixed up front from the schedule: the first plan
	// index the fabric kills. Sends at or past it never happen — the
	// "crashed" tail of the plan.
	abortAt := len(plan.Moves)
	if fab != nil {
		epoch := fab.NextEpoch()
		for i := range plan.Moves {
			if fab.AbortMigration(epoch, i) {
				abortAt = i
				break
			}
		}
	}
	type parcel struct {
		vertex int32
		data   *VertexData
	}
	// Channel fabric: inbox per rank, buffered to the plan size so
	// senders never block on slow receivers.
	inbox := make([]chan parcel, k)
	for r := range inbox {
		inbox[r] = make(chan parcel, len(plan.Moves)+1)
	}
	stats := Stats{PerRankSent: make([]int64, k), PerRankRecv: make([]int64, k)}
	perRankBytes := make([]int64, k)
	journal := make([][]parcel, k) // per sender: departed vertices, in send order
	missing := make([][]int32, k)  // per sender: vertices absent at send time

	var wg sync.WaitGroup
	for r := int32(0); r < k; r++ {
		wg.Add(1)
		go func(r int32) {
			defer wg.Done()
			st := stores[r]
			for _, m := range plan.SendsFrom(r) {
				if moveIndex[m.Vertex] >= abortAt {
					continue // the migration dies before this send
				}
				vd, ok := st.Vertices[m.Vertex]
				if !ok {
					missing[r] = append(missing[r], m.Vertex)
					continue
				}
				if ctx.Save != nil {
					vd.App = ctx.Save(m.Vertex)
				}
				delete(st.Vertices, m.Vertex)
				journal[r] = append(journal[r], parcel{m.Vertex, vd})
				inbox[m.To] <- parcel{m.Vertex, vd}
				perRankBytes[r] += payloadBytes(vd)
				stats.PerRankSent[r]++
			}
		}(r)
	}
	wg.Wait()

	// Deterministic verdict: a protocol violation outranks a scheduled
	// abort, and the reported vertex is the lowest missing one however
	// the goroutines interleaved.
	var verdict error
	var missingAll []int32
	for r := int32(0); r < k; r++ {
		missingAll = append(missingAll, missing[r]...)
	}
	if len(missingAll) > 0 {
		sort.Slice(missingAll, func(i, j int) bool { return missingAll[i] < missingAll[j] })
		v := missingAll[0]
		verdict = fmt.Errorf("migrate: rank %d does not hold vertex %d; rolled back", plan.Moves[moveIndex[v]].From, v)
	} else if abortAt < len(plan.Moves) {
		verdict = fmt.Errorf("migrate: fault at plan move %d of %d: %w", abortAt, len(plan.Moves), ErrAborted)
	}

	if verdict != nil {
		// Rollback: discard everything in flight and restore each
		// journaled departure to its sender, handing the application
		// context back through the Restore hook at the origin rank.
		for r := int32(0); r < k; r++ {
			close(inbox[r])
			for range inbox[r] {
			}
			for _, pc := range journal[r] {
				stores[r].Vertices[pc.vertex] = pc.data
				if ctx.Restore != nil {
					ctx.Restore(pc.vertex, pc.data.App)
				}
				stats.RolledBack++
			}
		}
		stats.Aborted = true
		stats.PerRankSent = make([]int64, k) // nothing moved
		mx.rollbacks.Inc()
		mx.rolledBack.Add(stats.RolledBack)
		if tr != nil {
			at := int32(-1) // protocol violation
			if len(missingAll) == 0 {
				at = int32(abortAt)
			}
			tr.Emit(obs.Event{Kind: obs.KindMigrationRollback, Round: -1, A: at, N: stats.RolledBack})
		}
		return stats, verdict
	}

	// Commit phase: all sends staged, drain inboxes into the stores.
	for r := int32(0); r < k; r++ {
		wg.Add(1)
		go func(r int32) {
			defer wg.Done()
			close(inbox[r])
			for pc := range inbox[r] {
				stores[r].Vertices[pc.vertex] = pc.data
				if ctx.Restore != nil {
					ctx.Restore(pc.vertex, pc.data.App)
				}
				stats.PerRankRecv[r]++
			}
		}(r)
	}
	wg.Wait()
	for r := int32(0); r < k; r++ {
		stats.MovedBytes += perRankBytes[r]
		stats.MovedVertices += stats.PerRankSent[r]
	}
	mx.moved.Add(stats.MovedVertices)
	mx.movedBytes.Add(stats.MovedBytes)
	tr.Emit(obs.Event{Kind: obs.KindMigrationCommit, Round: -1, N: stats.MovedVertices, M: stats.MovedBytes})
	return stats, nil
}

// payloadBytes models the wire size of a vertex payload: 12 bytes per
// half-edge (4 id + 4 weight + 4 framing), 8 bytes of vertex attributes,
// plus the application blob.
func payloadBytes(vd *VertexData) int64 {
	return int64(len(vd.Adj))*12 + 8 + int64(len(vd.App))
}

// Verify checks that the stores exactly realize the decomposition now:
// every vertex present in precisely the store of its partition.
func Verify(stores []*Store, g *graph.Graph, now *partition.Partitioning) error {
	seen := make([]bool, g.NumVertices())
	for _, st := range stores {
		// Walk each store's vertices in sorted order so a violation is
		// always reported against the same vertex, run after run.
		verts := make([]int32, 0, len(st.Vertices))
		for v := range st.Vertices {
			verts = append(verts, v)
		}
		sort.Slice(verts, func(i, j int) bool { return verts[i] < verts[j] })
		for _, v := range verts {
			if v < 0 || v >= g.NumVertices() {
				return fmt.Errorf("migrate: store %d holds out-of-range vertex %d", st.Rank, v)
			}
			if seen[v] {
				return fmt.Errorf("migrate: vertex %d present in multiple stores", v)
			}
			seen[v] = true
			if now.Assign[v] != st.Rank {
				return fmt.Errorf("migrate: vertex %d in store %d, should be %d", v, st.Rank, now.Assign[v])
			}
		}
	}
	for v, ok := range seen {
		if !ok {
			return fmt.Errorf("migrate: vertex %d lost", v)
		}
	}
	return nil
}
