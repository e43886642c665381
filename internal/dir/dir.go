// Package dir is the epoch-versioned partition-directory serving layer:
// the production read path of a PARAGON deployment, where millions of
// clients ask "which partition/rank owns vertex v?" while refinement and
// migration keep changing the answer underneath them.
//
// The core invariant is that no reader ever observes a torn mapping,
// under any fault schedule. Three rules enforce it:
//
//   - Reads are lock-free against an immutable epoch snapshot: one
//     atomic pointer load yields a Snapshot whose sharded, bit-packed
//     assignment vectors (partition.Packed, sharded by vertex-id range)
//     are never mutated after publication. Every (vertex, rank, epoch)
//     triple a reader extracts therefore belongs to exactly one
//     committed epoch.
//
//   - Writes arrive only as whole epochs. A publish validates its delta
//     (a migrate.Plan's move list) against the live snapshot, builds the
//     next snapshot copy-on-write (only shards containing moved vertices
//     are cloned), appends a prepare record and a commit record to the
//     journal — each an fsync modeled on the faultsim virtual clock,
//     droppable and retryable under the fault fabric — and only then
//     performs the single atomic pointer swap. Readers switch epochs at
//     one instruction; there is no intermediate state to observe.
//
//   - The flip is ordered strictly after the durable commit record, so
//     the journal always dominates the served state: recovery replays
//     the journal and rebuilds the directory bit-identically to the last
//     committed epoch. A publish that crashes between prepare and flip,
//     or whose journal append is dropped beyond the retry budget, leaves
//     the previous epoch fully live — the prepare record without a
//     commit is exactly what recovery discards.
//
// Stale-epoch reads (a client pinned to epoch e while e+1 is live) are
// answered with a deterministic forwarding hint — the current epoch's
// rank and epoch number — instead of an error, so clients converge
// without a coordination round. Epoch-flip events and lookup/forward/
// recovery metrics thread through internal/obs.
package dir

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"paragon/internal/detrand"
	"paragon/internal/faultsim"
	"paragon/internal/migrate"
	"paragon/internal/obs"
	"paragon/internal/partition"
)

// ErrPublishFailed marks an epoch publish abandoned by the fault layer —
// a journal append dropped beyond the retry budget, or a publisher
// crash. The previous epoch is still fully live and the directory keeps
// serving; detect with errors.Is.
var ErrPublishFailed = errors.New("directory epoch publish failed; previous epoch still live")

// ErrPublishCrashed is the publisher-crash flavor of ErrPublishFailed:
// the prepare record is durable but no commit was written, so recovery
// (like the live directory) stays on the previous epoch.
// errors.Is(err, ErrPublishFailed) also holds.
var ErrPublishCrashed = fmt.Errorf("publisher crashed between prepare and flip: %w", ErrPublishFailed)

// ErrFutureEpoch marks a lookup pinned to an epoch the directory has not
// committed — the one stale-read shape that is a client error, not a
// forwardable state.
var ErrFutureEpoch = errors.New("lookup pinned to an uncommitted epoch")

// Options tunes a Directory. The zero value is usable: no fault
// injection, no observability.
type Options struct {
	// Fabric optionally injects publish-phase faults: prepare/commit
	// journal appends may be dropped (retried after faultsim.Backoff), the
	// publisher may crash between prepare and flip, and a straggler delay
	// may stretch the window. Nil runs fault-free.
	Fabric *faultsim.Injector
	// Clock, when set, absorbs the virtual ticks of modeled fsyncs
	// (fsyncTicks each), backoffs, and straggler delays.
	Clock *faultsim.Clock
	// Trace, when set, receives epoch_prepare / epoch_commit /
	// epoch_abort / dir_recovered events from the (serialized) publish
	// and recovery paths.
	Trace *obs.Tracer
	// Metrics, when set, accumulates the dir_* counters and the
	// dir_epoch gauge.
	Metrics *obs.Registry
}

// shardBits is log2 of the vertex-id range covered by one shard of a
// new directory: 2^16-vertex shards. Smaller shards make epoch flips
// cheaper (less copy-on-write) at slightly more pointer chasing; tests
// lower it, within the [6, 24] a base record may carry, to exercise many
// shards on small inputs. The base record stores the width, so Recover
// rebuilds from the width it reads.
var shardBits uint = 16

// fsyncTicks is the virtual-clock cost of one modeled journal fsync.
const fsyncTicks = 2

// Snapshot is one immutable committed epoch: bit-packed assignment
// vectors sharded by vertex-id range. Snapshots are never mutated after
// publication — an epoch flip builds a new Snapshot sharing every
// untouched shard — so any number of readers may use one concurrently
// with publishes, without synchronization.
type Snapshot struct {
	epoch     int64
	k, n      int32
	shardBits uint
	shards    []*partition.Packed
	shardHash []uint64 // cached Hash64 per shard; folded by AssignHash
}

// Epoch returns the committed epoch number (0 = the base epoch).
func (s *Snapshot) Epoch() int64 { return s.epoch }

// K returns the partition/rank count.
func (s *Snapshot) K() int32 { return s.k }

// NumVertices returns the vertex-id space size.
func (s *Snapshot) NumVertices() int32 { return s.n }

// Rank returns the owner of vertex v in this epoch.
func (s *Snapshot) Rank(v int32) int32 {
	if v < 0 || v >= s.n {
		panic(fmt.Sprintf("dir: vertex %d out of range [0,%d)", v, s.n))
	}
	return s.shards[v>>s.shardBits].Get(v & (1<<s.shardBits - 1))
}

// AppendAssign appends the full assignment vector to dst and returns dst.
func (s *Snapshot) AppendAssign(dst []int32) []int32 {
	for _, sh := range s.shards {
		dst = sh.AppendAssign(dst)
	}
	return dst
}

// AssignHash returns an order-sensitive FNV-1a digest of the epoch's
// whole assignment (epoch number excluded): two snapshots mapping every
// vertex identically hash identically, whatever their copy-on-write
// lineage. This is the integrity digest the commit journal record
// carries and recovery re-derives.
func (s *Snapshot) AssignHash() uint64 {
	h := detrand.FNVFold64(detrand.FNVOffset64, uint64(uint32(s.k)))
	h = detrand.FNVFold64(h, uint64(uint32(s.n)))
	for _, sh := range s.shardHash {
		h = detrand.FNVFold64(h, sh)
	}
	return h
}

// buildSnapshot packs a plain assignment into the sharded epoch form.
func buildSnapshot(assign []int32, k int32, shardBits uint, epoch int64) *Snapshot {
	n := int32(len(assign))
	size := int32(1) << shardBits
	nshards := int((int64(n) + int64(size) - 1) / int64(size))
	s := &Snapshot{
		epoch: epoch, k: k, n: n, shardBits: shardBits,
		shards:    make([]*partition.Packed, nshards),
		shardHash: make([]uint64, nshards),
	}
	for si := 0; si < nshards; si++ {
		lo := int32(si) << shardBits
		hi := lo + size
		if hi > n {
			hi = n
		}
		s.shards[si] = partition.PackAssign(assign[lo:hi], k)
		s.shardHash[si] = s.shards[si].Hash64()
	}
	return s
}

// apply builds the next epoch copy-on-write: untouched shards are shared
// with s, shards containing moved vertices are cloned once and updated.
// The delta must be whole and consistent: every move's From must match
// this snapshot, every To must be a valid rank, and no vertex may be
// scheduled twice. Moves must be in a deterministic order (the caller's
// responsibility; migrate.Plan order and vertex order both qualify) for
// the first reported violation to be deterministic.
func (s *Snapshot) apply(moves []migrate.Move) (*Snapshot, error) {
	next := &Snapshot{
		epoch: s.epoch + 1, k: s.k, n: s.n, shardBits: s.shardBits,
		shards:    append([]*partition.Packed(nil), s.shards...),
		shardHash: append([]uint64(nil), s.shardHash...),
	}
	cloned := make([]bool, len(s.shards))
	seen := make(map[int32]struct{}, len(moves))
	mask := int32(1)<<s.shardBits - 1
	for i, m := range moves {
		if m.Vertex < 0 || m.Vertex >= s.n {
			return nil, fmt.Errorf("dir: delta move %d: vertex %d out of range [0,%d)", i, m.Vertex, s.n)
		}
		if m.To < 0 || m.To >= s.k {
			return nil, fmt.Errorf("dir: delta move %d: rank %d out of range [0,%d)", i, m.To, s.k)
		}
		if _, dup := seen[m.Vertex]; dup {
			return nil, fmt.Errorf("dir: delta move %d: vertex %d scheduled twice", i, m.Vertex)
		}
		seen[m.Vertex] = struct{}{}
		if got := s.Rank(m.Vertex); got != m.From {
			return nil, fmt.Errorf("dir: stale delta: move %d says vertex %d is on rank %d, epoch %d has %d", i, m.Vertex, m.From, s.epoch, got)
		}
		si := m.Vertex >> s.shardBits
		if !cloned[si] {
			next.shards[si] = next.shards[si].Clone()
			cloned[si] = true
		}
		next.shards[si].Set(m.Vertex&mask, m.To)
	}
	for si, c := range cloned {
		if c {
			next.shardHash[si] = next.shards[si].Hash64()
		}
	}
	return next, nil
}

// Result is a lookup answer. When the client's pinned epoch is stale,
// Forwarded is true and Rank/Epoch carry the deterministic forwarding
// hint: the currently live epoch and the vertex's rank in it.
type Result struct {
	Rank      int32
	Epoch     int64
	Forwarded bool
}

// dirMetrics resolves the registry handles the directory touches; the
// zero value (nil registry) makes every operation a no-op.
type dirMetrics struct {
	lookups      *obs.Counter
	forwards     *obs.Counter
	flips        *obs.Counter
	aborts       *obs.Counter
	crashes      *obs.Counter
	fsyncRetries *obs.Counter
	journalBytes *obs.Counter
	recoveries   *obs.Counter
	tornBytes    *obs.Counter
	epoch        *obs.Gauge
}

func newDirMetrics(r *obs.Registry) dirMetrics {
	if r == nil {
		return dirMetrics{}
	}
	return dirMetrics{
		lookups:      r.Counter("dir_lookups_total", "directory lookups served"),
		forwards:     r.Counter("dir_forwards_total", "stale-epoch lookups answered with a forwarding hint"),
		flips:        r.Counter("dir_epoch_flips_total", "epoch publishes committed and flipped live"),
		aborts:       r.Counter("dir_publish_aborts_total", "epoch publishes abandoned (crash or retry budget); previous epoch stayed live"),
		crashes:      r.Counter("dir_publish_crashes_total", "publishes killed between prepare and flip"),
		fsyncRetries: r.Counter("dir_fsync_retries_total", "journal appends retransmitted after a dropped fsync"),
		journalBytes: r.Counter("dir_journal_bytes_total", "journal bytes durably appended"),
		recoveries:   r.Counter("dir_recoveries_total", "directories rebuilt from a journal"),
		tornBytes:    r.Counter("dir_torn_bytes_total", "torn journal tail bytes discarded by recovery"),
		epoch:        r.Gauge("dir_epoch", "currently live directory epoch"),
	}
}

// Directory is the serving-layer instance. Lookups are safe from any
// number of goroutines and never block; publishes are serialized
// internally (last caller wins the next epoch number).
type Directory struct {
	fab *faultsim.Injector
	clk *faultsim.Clock
	tr  *obs.Tracer
	mx  dirMetrics

	cur atomic.Pointer[Snapshot]

	mu sync.Mutex // serializes publishers; guards the journal
	j  []byte     // journal: base record + per-epoch prepare/commit records
}

// New builds a directory serving epoch 0 from a full assignment vector
// (values in [0, k)) and writes the journal's base record. Construction
// is not a fault point: the base record is appended without injection
// (a deployment that cannot even write its base journal has nothing to
// recover).
func New(assign []int32, k int32, opts Options) (*Directory, error) {
	if k < 1 {
		return nil, fmt.Errorf("dir: k = %d must be positive", k)
	}
	for v, r := range assign {
		if r < 0 || r >= k {
			return nil, fmt.Errorf("dir: vertex %d assigned to %d outside [0,%d)", v, r, k)
		}
	}
	d := &Directory{
		fab: opts.Fabric, clk: opts.Clock, tr: opts.Trace,
		mx: newDirMetrics(opts.Metrics),
	}
	s0 := buildSnapshot(assign, k, shardBits, 0)
	d.j = appendBaseRecord(d.j, assign, k, shardBits)
	d.mx.journalBytes.Add(int64(len(d.j)))
	d.advance(fsyncTicks)
	d.cur.Store(s0)
	d.mx.epoch.Set(0)
	return d, nil
}

// advance moves the virtual clock, when one is installed.
func (d *Directory) advance(ticks int64) {
	if d.clk != nil && ticks > 0 {
		d.clk.Advance(ticks)
	}
}

// Current returns the live epoch snapshot: one atomic load, never nil.
// The snapshot is immutable — callers may read it for any length of
// time while publishes flip the directory past them.
func (d *Directory) Current() *Snapshot { return d.cur.Load() }

// Epoch returns the currently live epoch number.
func (d *Directory) Epoch() int64 { return d.cur.Load().epoch }

// Lookup answers "which rank owns vertex v right now": the vertex's
// rank in the live epoch, and that epoch's number. Lock-free; safe from
// any number of goroutines concurrently with publishes.
func (d *Directory) Lookup(v int32) (rank int32, epoch int64) {
	s := d.cur.Load()
	d.mx.lookups.Inc()
	return s.Rank(v), s.epoch
}

// LookupAt answers a lookup from a client pinned to epoch. A current
// client (epoch == live) gets its rank straight; a stale client
// (epoch < live) gets the deterministic forwarding hint — Forwarded
// true, plus the live epoch and the vertex's rank in it — instead of an
// error; a client pinned past the live epoch is a protocol error
// (ErrFutureEpoch).
func (d *Directory) LookupAt(epoch int64, v int32) (Result, error) {
	s := d.cur.Load()
	d.mx.lookups.Inc()
	if epoch > s.epoch {
		return Result{}, fmt.Errorf("dir: epoch %d ahead of live epoch %d: %w", epoch, s.epoch, ErrFutureEpoch)
	}
	r := Result{Rank: s.Rank(v), Epoch: s.epoch, Forwarded: epoch < s.epoch}
	if r.Forwarded {
		d.mx.forwards.Inc()
	}
	return r, nil
}

// Publish applies one whole-epoch delta: validate against the live
// snapshot, build the next snapshot copy-on-write, journal prepare —
// fault point: the append's modeled fsync may be dropped and retried,
// and beyond the retry budget the publish aborts — then the
// crash/straggler window, then journal commit (same fault point), and
// only then the single atomic flip. On any abort the previous epoch is
// still fully live and the returned error matches ErrPublishFailed. An
// empty delta is a legal epoch flip.
//
// Moves must be in a deterministic order; migrate.Plan order (From, To,
// Vertex) and plain vertex order both qualify.
func (d *Directory) Publish(moves []migrate.Move) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.publishLocked(moves)
}

// publish fault-point coordinates: one fabric epoch per publish, ops
// within it.
const (
	opPrepare = 0 // Drop op of the prepare append
	opCommit  = 1 // Drop op of the commit append
	opPublish = 0 // CrashGroup / GroupDelay index of the publisher
)

func (d *Directory) publishLocked(moves []migrate.Move) (int64, error) {
	cur := d.cur.Load()
	next, err := cur.apply(moves)
	if err != nil {
		return 0, err
	}
	epoch := next.epoch
	fe := 0
	if d.fab != nil {
		fe = d.fab.NextEpoch()
	}
	plan := &migrate.Plan{K: cur.k, Moves: moves}
	attempts, err := d.appendRecord(recPrepare, epoch, plan.AppendBinary(nil), fe, opPrepare)
	if err != nil {
		d.abort(epoch, 0, attempts)
		return 0, err
	}
	d.tr.Emit(obs.Event{Kind: obs.KindEpochPrepare, Round: -1, N: epoch, M: int64(len(moves))})
	// The window the whole design defends: prepare is durable, the flip
	// has not happened. A crash here abandons the publish — the journal
	// keeps the commit-less prepare, recovery and the live directory
	// both stay on the previous epoch. A straggler only stretches the
	// window on the virtual clock; readers keep serving the old epoch
	// throughout either way.
	if d.fab != nil {
		if d.fab.CrashGroup(fe, opPublish) {
			d.abort(epoch, 1, attempts)
			d.mx.crashes.Inc()
			return 0, ErrPublishCrashed
		}
		d.advance(d.fab.GroupDelay(fe, opPublish))
	}
	attempts, err = d.appendRecord(recCommit, epoch, binary.LittleEndian.AppendUint64(nil, next.AssignHash()), fe, opCommit)
	if err != nil {
		d.abort(epoch, 2, attempts)
		return 0, err
	}
	// The single atomic pointer swap: the only instruction at which
	// readers change epochs, ordered strictly after the durable commit.
	d.cur.Store(next)
	d.mx.flips.Inc()
	d.mx.epoch.Set(float64(epoch))
	d.tr.Emit(obs.Event{Kind: obs.KindEpochCommit, Round: -1, N: epoch, M: int64(len(moves))})
	return epoch, nil
}

// abort records a failed publish (phase 0 = prepare append, 1 = crash,
// 2 = commit append).
func (d *Directory) abort(epoch int64, phase int32, attempts int) {
	d.mx.aborts.Inc()
	d.tr.Emit(obs.Event{Kind: obs.KindEpochAbort, Round: -1, A: phase, B: int32(attempts), N: epoch})
}

// appendRecord journals one record under the fsync model: every attempt
// costs fsyncTicks of virtual time; under the fabric the write may be
// dropped and is retried after a capped backoff; beyond the retry budget
// the append fails with ErrPublishFailed and the journal is unchanged
// (the writer repairs its tail — torn tails only ever exist at a crash
// boundary, which the recovery sweep covers byte by byte).
//
// This loop deliberately does not go through faultsim.Deliver: an attempt
// here pays its fsync tick before the drop decision, where a message
// attempt pays nothing until it is lost, so sharing would make the shared
// loop branch on which caller it serves.
func (d *Directory) appendRecord(typ byte, epoch int64, payload []byte, fe, op int) (attempts int, err error) {
	rec := appendRecordBytes(nil, typ, epoch, payload)
	for attempt := 0; ; attempt++ {
		d.advance(fsyncTicks)
		if d.fab == nil || !d.fab.Drop(fe, op, attempt) {
			d.j = append(d.j, rec...)
			d.mx.journalBytes.Add(int64(len(rec)))
			return attempt + 1, nil
		}
		if attempt >= faultsim.MaxRetries {
			return attempt + 1, fmt.Errorf("dir: journal append for epoch %d dropped %d times: %w", epoch, attempt+1, ErrPublishFailed)
		}
		d.mx.fsyncRetries.Inc()
		d.advance(faultsim.Backoff(attempt))
	}
}

// PublishAssign diffs a target assignment against the live epoch and
// publishes the difference as one whole epoch — the convenience form
// the refinement driver calls after each committed round. Because the
// diff is taken against the directory's own snapshot, a directory that
// fell behind (previous publishes aborted by faults) catches up in one
// flip.
func (d *Directory) PublishAssign(assign []int32) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := d.cur.Load()
	if int32(len(assign)) != cur.n {
		return 0, fmt.Errorf("dir: assignment has %d vertices, directory %d", len(assign), cur.n)
	}
	var moves []migrate.Move
	for v := int32(0); v < cur.n; v++ {
		if from := cur.Rank(v); from != assign[v] {
			moves = append(moves, migrate.Move{Vertex: v, From: from, To: assign[v]})
		}
	}
	return d.publishLocked(moves)
}

// JournalBytes returns a copy of the journal: the base record plus
// every prepare/commit appended since, including commit-less prepares
// of crashed publishes. Feeding any prefix of it to Recover rebuilds
// the directory at the last epoch whose commit record survives.
func (d *Directory) JournalBytes() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]byte(nil), d.j...)
}
