package dir

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"paragon/internal/migrate"
	"paragon/internal/obs"
	"paragon/internal/partition"
)

// The journal is a flat byte log of self-checking records:
//
//	[0]     magic 0xD7
//	[1]     type: 1 base, 2 prepare, 3 commit
//	[2:10]  epoch, int64 LE (0 for base)
//	[10:14] payload length, uint32 LE
//	[14:]   payload
//	[...+8] FNV-1a checksum of everything above, uint64 LE
//
// Base payload:    k int32, n int32, shardBits uint32, then the packed
//                  epoch-0 assignment words (partition.Packed layout).
// Prepare payload: the epoch's delta in migrate.Plan binary form.
// Commit payload:  the committed snapshot's AssignHash, uint64 LE.
//
// Recovery parses sequentially and stops at the first record that is
// incomplete or fails its checksum — the torn-tail model: a crash can
// truncate the log mid-record, and whatever the truncation cuts, the
// surviving prefix decodes to exactly the last committed epoch. A
// structural violation *inside* a well-checksummed prefix (prepare
// before base, commit without its prepare, a commit hash that does not
// match the replayed delta) is not a torn tail — the writer cannot
// produce it — and recovery fails loudly instead of guessing.

const (
	recMagic   byte = 0xD7
	recBase    byte = 1
	recPrepare byte = 2
	recCommit  byte = 3

	recHeaderLen  = 14
	recTrailerLen = 8
	recMaxPayload = 1 << 30
)

// ErrJournalCorrupt marks a journal whose well-checksummed prefix is
// structurally impossible — not mere truncation, which Recover absorbs
// silently, but bytes the directory's writer could never have produced.
var ErrJournalCorrupt = errors.New("directory journal corrupt beyond torn-tail repair")

// fnvSum digests a byte slice (FNV-1a, 64-bit).
func fnvSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// appendRecordBytes frames one journal record around payload.
func appendRecordBytes(dst []byte, typ byte, epoch int64, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, recMagic, typ)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(epoch))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint64(dst, fnvSum(dst[start:]))
}

// appendBaseRecord frames the epoch-0 record: full assignment in packed
// form plus the shard geometry, so a journal is self-describing and
// Recover needs no out-of-band configuration to rebuild the snapshots.
func appendBaseRecord(dst []byte, assign []int32, k int32, shardBits uint) []byte {
	p := partition.PackAssign(assign, k)
	payload := make([]byte, 0, 12+8*len(p.Words()))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(k))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(assign)))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(shardBits))
	for _, w := range p.Words() {
		payload = binary.LittleEndian.AppendUint64(payload, w)
	}
	return appendRecordBytes(dst, recBase, 0, payload)
}

// parseRecord decodes the record at the head of data. ok is false when
// the bytes cannot be a whole valid record — too short, bad magic,
// unknown type, oversized payload, or checksum mismatch — which recovery
// uniformly treats as the torn tail.
func parseRecord(data []byte) (typ byte, epoch int64, payload []byte, size int, ok bool) {
	if len(data) < recHeaderLen+recTrailerLen {
		return 0, 0, nil, 0, false
	}
	if data[0] != recMagic {
		return 0, 0, nil, 0, false
	}
	typ = data[1]
	if typ < recBase || typ > recCommit {
		return 0, 0, nil, 0, false
	}
	plen := int(binary.LittleEndian.Uint32(data[10:14]))
	if plen < 0 || plen > recMaxPayload {
		return 0, 0, nil, 0, false
	}
	size = recHeaderLen + plen + recTrailerLen
	if len(data) < size {
		return 0, 0, nil, 0, false
	}
	if fnvSum(data[:recHeaderLen+plen]) != binary.LittleEndian.Uint64(data[recHeaderLen+plen:size]) {
		return 0, 0, nil, 0, false
	}
	epoch = int64(binary.LittleEndian.Uint64(data[2:10]))
	payload = data[recHeaderLen : recHeaderLen+plen]
	return typ, epoch, payload, size, true
}

// decodeBasePayload unpacks the epoch-0 record.
func decodeBasePayload(payload []byte) (assign []int32, k int32, shardBits uint, err error) {
	if len(payload) < 12 {
		return nil, 0, 0, fmt.Errorf("dir: base payload %d bytes, want >= 12: %w", len(payload), ErrJournalCorrupt)
	}
	k = int32(binary.LittleEndian.Uint32(payload))
	n := int32(binary.LittleEndian.Uint32(payload[4:]))
	shardBits = uint(binary.LittleEndian.Uint32(payload[8:]))
	if k < 1 || n < 0 || shardBits < 6 || shardBits > 24 {
		return nil, 0, 0, fmt.Errorf("dir: base geometry k=%d n=%d shardBits=%d: %w", k, n, shardBits, ErrJournalCorrupt)
	}
	wordBytes := payload[12:]
	if len(wordBytes)%8 != 0 {
		return nil, 0, 0, fmt.Errorf("dir: base words not 8-byte aligned: %w", ErrJournalCorrupt)
	}
	words := make([]uint64, len(wordBytes)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(wordBytes[8*i:])
	}
	p, perr := partition.PackedFromWords(n, k, words)
	if perr != nil {
		return nil, 0, 0, fmt.Errorf("dir: base record: %v: %w", perr, ErrJournalCorrupt)
	}
	return p.AppendAssign(nil), k, shardBits, nil
}

// Recover rebuilds a directory from journal bytes: replay the base
// record and every prepare+commit pair in order, stopping at the first
// torn (incomplete or checksum-failing) record. The result serves the
// last committed epoch bit-identically to the directory that wrote the
// journal — a prepare without its commit (a publish that crashed between
// prepare and flip) is skipped exactly as the live directory skipped its
// flip. The surviving prefix becomes the recovered directory's journal;
// torn tail bytes are discarded and counted.
//
// opts supplies the runtime wiring (fabric, clock, observability) of the
// recovered instance; shard geometry comes from the journal itself.
func Recover(journal []byte, opts Options) (*Directory, error) {
	var (
		cur          *Snapshot
		pendingPlan  *migrate.Plan
		pendingEpoch int64
		off          int
	)
	for off < len(journal) {
		typ, epoch, payload, size, ok := parseRecord(journal[off:])
		if !ok {
			break // torn tail: everything from off on is discarded
		}
		switch typ {
		case recBase:
			if cur != nil {
				return nil, fmt.Errorf("dir: duplicate base record: %w", ErrJournalCorrupt)
			}
			assign, k, shardBits, err := decodeBasePayload(payload)
			if err != nil {
				return nil, err
			}
			cur = buildSnapshot(assign, k, shardBits, 0)
		case recPrepare:
			if cur == nil {
				return nil, fmt.Errorf("dir: prepare record before base: %w", ErrJournalCorrupt)
			}
			if epoch != cur.epoch+1 {
				return nil, fmt.Errorf("dir: prepare for epoch %d after committed epoch %d: %w", epoch, cur.epoch, ErrJournalCorrupt)
			}
			plan, err := migrate.DecodePlan(payload)
			if err != nil {
				return nil, fmt.Errorf("dir: prepare for epoch %d: %v: %w", epoch, err, ErrJournalCorrupt)
			}
			pendingPlan, pendingEpoch = plan, epoch
		case recCommit:
			if pendingPlan == nil || epoch != pendingEpoch {
				return nil, fmt.Errorf("dir: commit for epoch %d without matching prepare: %w", epoch, ErrJournalCorrupt)
			}
			if len(payload) != 8 {
				return nil, fmt.Errorf("dir: commit payload %d bytes, want 8: %w", len(payload), ErrJournalCorrupt)
			}
			next, err := cur.apply(pendingPlan.Moves)
			if err != nil {
				return nil, fmt.Errorf("dir: replaying epoch %d: %v: %w", epoch, err, ErrJournalCorrupt)
			}
			if got, want := next.AssignHash(), binary.LittleEndian.Uint64(payload); got != want {
				return nil, fmt.Errorf("dir: epoch %d replay hash %#x != journaled %#x: %w", epoch, got, want, ErrJournalCorrupt)
			}
			cur = next
			pendingPlan = nil
		}
		off += size
	}
	if cur == nil {
		return nil, fmt.Errorf("dir: journal holds no complete base record: %w", ErrJournalCorrupt)
	}
	torn := len(journal) - off
	d := &Directory{
		fab: opts.Fabric, clk: opts.Clock, tr: opts.Trace,
		mx: newDirMetrics(opts.Metrics),
	}
	d.j = append([]byte(nil), journal[:off]...)
	d.cur.Store(cur)
	d.mx.recoveries.Inc()
	d.mx.tornBytes.Add(int64(torn))
	d.mx.epoch.Set(float64(cur.epoch))
	d.tr.Emit(obs.Event{Kind: obs.KindDirRecovered, Round: -1, N: cur.epoch, M: int64(torn)})
	return d, nil
}
