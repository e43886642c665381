package dir

import (
	"encoding/binary"
	"testing"
)

// FuzzJournal feeds arbitrary bytes to Recover. Whatever arrives, the
// result is an error or a directory whose snapshot holds n ranks in
// [0, k), re-packs to its own AssignHash, and recovers again from its
// own journal to the same epoch and hash.
//
// The seeds are one journal of a faulted publish history (a crash
// between prepare and flip, an exhausted retry budget), whole, cut and
// bit-flipped. An input that is that journal cut short, with at most
// one bit flipped, is held to more: every record that ends before the
// first damaged byte survives, so Recover returns the epoch of the last
// such commit record, with the hash that record journaled, and fails
// only when the damage reaches into the base record.
func FuzzJournal(f *testing.F) {
	d, _ := buildHistory(f, 200, 5)
	seed := d.JournalBytes()
	// ends[i] is where the i-th surviving epoch's record ends (the base,
	// then each commit), hashes[i] that epoch's AssignHash.
	var ends []int
	var hashes []uint64
	for off := 0; off < len(seed); {
		typ, _, payload, size, ok := parseRecord(seed[off:])
		if !ok {
			f.Fatalf("seed journal torn at %d", off)
		}
		off += size
		switch typ {
		case recBase:
			assign, k, shardBits, err := decodeBasePayload(payload)
			if err != nil {
				f.Fatal(err)
			}
			ends, hashes = append(ends, off), append(hashes, buildSnapshot(assign, k, shardBits, 0).AssignHash())
		case recCommit:
			ends, hashes = append(ends, off), append(hashes, binary.LittleEndian.Uint64(payload))
		}
	}
	if len(ends) < 3 {
		f.Fatalf("seed journal commits %d epochs", len(ends))
	}
	f.Add(seed)
	for _, cut := range []int{ends[0] - 1, ends[0], ends[1] - 3, ends[1] + 20, len(seed) - 1} {
		f.Add(seed[:cut])
	}
	for _, at := range []int{1, ends[0] + 11, ends[1] + 5, ends[2] - 2, len(seed) - 9} {
		flipped := append([]byte(nil), seed...)
		flipped[at] ^= 0x10
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Recover(data, Options{})
		if damage, ok := damageOffset(seed, data); ok {
			i := len(ends) - 1
			for i >= 0 && ends[i] > damage {
				i--
			}
			if i < 0 {
				if err == nil {
					t.Fatalf("base record damaged at byte %d, but Recover succeeded", damage)
				}
				return
			}
			if err != nil {
				t.Fatalf("damage at byte %d leaves %d epochs intact, but Recover failed: %v", damage, i+1, err)
			}
			if got := r.Current(); got.Epoch() != int64(i) || got.AssignHash() != hashes[i] {
				t.Fatalf("damage at byte %d: recovered epoch %d hash %#x, want epoch %d hash %#x",
					damage, got.Epoch(), got.AssignHash(), i, hashes[i])
			}
		}
		if err != nil {
			return
		}
		s := r.Current()
		assign := s.AppendAssign(nil)
		if int32(len(assign)) != s.NumVertices() {
			t.Fatalf("snapshot unpacks %d ranks for %d vertices", len(assign), s.NumVertices())
		}
		for v, rank := range assign {
			if rank < 0 || rank >= s.K() {
				t.Fatalf("vertex %d on rank %d outside [0,%d)", v, rank, s.K())
			}
		}
		if h := buildSnapshot(assign, s.k, s.shardBits, s.epoch).AssignHash(); h != s.AssignHash() {
			t.Fatalf("snapshot re-packs to hash %#x, holds %#x", h, s.AssignHash())
		}
		again, err := Recover(r.JournalBytes(), Options{})
		if err != nil {
			t.Fatalf("recovered journal does not recover: %v", err)
		}
		if again.Epoch() != s.Epoch() || again.Current().AssignHash() != s.AssignHash() {
			t.Fatalf("recovering twice moved epoch %d to %d", s.Epoch(), again.Epoch())
		}
	})
}

// damageOffset reports whether data is seed cut short with at most one
// bit flipped, and if so the first byte where it stops matching seed.
func damageOffset(seed, data []byte) (int, bool) {
	if len(data) > len(seed) {
		return 0, false
	}
	first := len(data)
	flips := 0
	for i := range data {
		if x := data[i] ^ seed[i]; x != 0 {
			if flips > 0 || x&(x-1) != 0 {
				return 0, false
			}
			first, flips = i, 1
		}
	}
	return first, true
}
