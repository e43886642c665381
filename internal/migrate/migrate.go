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
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"paragon/internal/faultsim"
	"paragon/internal/graph"
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
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.K))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p.Moves)))
	for _, m := range p.Moves {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Vertex))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(m.From))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(m.To))
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
	k := int32(binary.LittleEndian.Uint32(data[0:]))
	n := int32(binary.LittleEndian.Uint32(data[4:]))
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
			Vertex: int32(binary.LittleEndian.Uint32(data[off:])),
			From:   int32(binary.LittleEndian.Uint32(data[off+4:])),
			To:     int32(binary.LittleEndian.Uint32(data[off+8:])),
		}
	}
	return p, nil
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
// vertex departs, Restore on the receiver after it arrives (or on the
// sender again, when the migration rolls back). Both run on the caller's
// goroutine, one vertex at a time in plan order, so they may write plain
// maps. Either hook may be nil.
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

// Execute runs the migration: every move of the plan ships its vertex
// payload from the sender's store to the receiver's, invoking the
// application hooks around each move. Stores are updated in place.
func Execute(stores []*Store, plan *Plan, ctx AppContext) (Stats, error) {
	return ExecuteWith(stores, plan, ctx, nil)
}

// validatePlan rejects malformed plans before any store is touched:
// out-of-range ranks, degenerate moves, and conflicting moves (the same
// vertex scheduled twice).
func validatePlan(plan *Plan, k int32) error {
	index := make(map[int32]int, len(plan.Moves))
	for i, m := range plan.Moves {
		if m.From < 0 || m.From >= k || m.To < 0 || m.To >= k {
			return fmt.Errorf("migrate: move %d sends vertex %d between out-of-range ranks %d -> %d (k=%d)", i, m.Vertex, m.From, m.To, k)
		}
		if m.From == m.To {
			return fmt.Errorf("migrate: move %d is degenerate: vertex %d stays on rank %d", i, m.Vertex, m.From)
		}
		if j, dup := index[m.Vertex]; dup {
			return fmt.Errorf("migrate: conflicting plan: vertex %d scheduled by moves %d and %d", m.Vertex, j, i)
		}
		index[m.Vertex] = i
	}
	return nil
}

// ExecuteWith is Execute under a fault fabric (nil = fault-free). The
// migration is a transaction: every departing vertex is journaled in plan
// order and staged, and only a fully-staged plan commits. If the fabric
// aborts the migration mid-plan (or a sender finds a vertex missing),
// every journaled departure is restored to its sender — application
// context included, via the Restore hook — and ExecuteWith returns
// ErrAborted (or the protocol error). Either way Verify holds afterwards:
// against the new decomposition on commit, against the old one on
// rollback.
func ExecuteWith(stores []*Store, plan *Plan, ctx AppContext, fab *faultsim.Injector) (Stats, error) {
	k := int32(len(stores))
	if plan.K != k {
		return Stats{}, fmt.Errorf("migrate: plan for %d ranks, %d stores", plan.K, k)
	}
	if err := validatePlan(plan, k); err != nil {
		return Stats{}, err
	}
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
		m    Move
		data *VertexData
	}
	// Staging walks the plan up to the abort point and journals each
	// departure in plan order. A missing vertex is a protocol violation;
	// the lowest one is reported.
	stats := Stats{PerRankSent: make([]int64, k), PerRankRecv: make([]int64, k)}
	journal := make([]parcel, 0, abortAt)
	missing := -1
	for i, m := range plan.Moves[:abortAt] {
		vd, ok := stores[m.From].Vertices[m.Vertex]
		if !ok {
			if missing < 0 || m.Vertex < plan.Moves[missing].Vertex {
				missing = i
			}
			continue
		}
		if ctx.Save != nil {
			vd.App = ctx.Save(m.Vertex)
		}
		delete(stores[m.From].Vertices, m.Vertex)
		journal = append(journal, parcel{m, vd})
		stats.MovedVertices++
		stats.MovedBytes += payloadBytes(vd)
		stats.PerRankSent[m.From]++
		stats.PerRankRecv[m.To]++
	}

	// A protocol violation outranks a scheduled abort.
	var verdict error
	if missing >= 0 {
		m := plan.Moves[missing]
		verdict = fmt.Errorf("migrate: rank %d does not hold vertex %d; rolled back", m.From, m.Vertex)
	} else if abortAt < len(plan.Moves) {
		verdict = fmt.Errorf("migrate: fault at plan move %d of %d: %w", abortAt, len(plan.Moves), ErrAborted)
	}

	// Commit delivers each journaled parcel to its receiver; rollback
	// restores it to its sender. Either way the application context is
	// handed back through the Restore hook, in plan order.
	for _, pc := range journal {
		r := pc.m.To
		if verdict != nil {
			r = pc.m.From
		}
		stores[r].Vertices[pc.m.Vertex] = pc.data
		if ctx.Restore != nil {
			ctx.Restore(pc.m.Vertex, pc.data.App)
		}
	}
	if verdict != nil {
		// Nothing moved.
		return Stats{
			PerRankSent: make([]int64, k), PerRankRecv: make([]int64, k),
			Aborted: true, RolledBack: int64(len(journal)),
		}, verdict
	}
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
