package partition

import (
	"fmt"
	"math/bits"

	"paragon/internal/detrand"
)

// Packed is a bit-packed assignment vector: n entries in [0, K), each
// stored in ceil(log2(K)) bits, entries never straddling a word. At
// k = 128 an entry costs 7 bits instead of 32 — the epoch snapshots of
// the partition directory (internal/dir) hold one of these per shard, so
// a 10M-vertex directory epoch is ~9 MB instead of 40 MB, and a
// copy-on-write epoch flip clones only the shards a migration touched.
//
// Entries within one word are independent bit fields, so concurrent
// readers racing a *different* Packed instance (the directory's
// immutable-snapshot discipline) need no synchronization; Packed itself
// is not safe for concurrent mutation.
type Packed struct {
	words []uint64
	n     int32
	k     int32
	bits  uint8 // bits per entry
	per   int32 // entries per word (64/bits)
}

// bitsFor returns the entry width for assignments in [0, k).
func bitsFor(k int32) uint8 {
	if k <= 1 {
		return 1
	}
	return uint8(bits.Len32(uint32(k - 1)))
}

// NewPacked returns an all-zero packed vector of n entries in [0, k).
func NewPacked(n, k int32) *Packed {
	if k < 1 {
		panic(fmt.Sprintf("partition: packed k = %d must be positive", k))
	}
	if n < 0 {
		panic(fmt.Sprintf("partition: packed n = %d must be non-negative", n))
	}
	b := bitsFor(k)
	return &Packed{words: make([]uint64, packedWords(n, k)), n: n, k: k, bits: b, per: int32(64 / int(b))}
}

// packedWords is the number of words n entries in [0, k) occupy.
func packedWords(n, k int32) int {
	per := 64 / int(bitsFor(k))
	return (int(n) + per - 1) / per
}

// PackAssign packs a plain assignment slice (values in [0, k)).
func PackAssign(assign []int32, k int32) *Packed {
	p := NewPacked(int32(len(assign)), k)
	for v, r := range assign {
		p.Set(int32(v), r)
	}
	return p
}

// Get returns entry v.
func (p *Packed) Get(v int32) int32 {
	if v < 0 || v >= p.n {
		panic(fmt.Sprintf("partition: packed index %d out of range [0,%d)", v, p.n))
	}
	w := p.words[v/p.per]
	shift := uint(v%p.per) * uint(p.bits)
	return int32((w >> shift) & (1<<p.bits - 1))
}

// Set stores entry v = r.
func (p *Packed) Set(v, r int32) {
	if v < 0 || v >= p.n {
		panic(fmt.Sprintf("partition: packed index %d out of range [0,%d)", v, p.n))
	}
	if r < 0 || r >= p.k {
		panic(fmt.Sprintf("partition: packed value %d out of range [0,%d)", r, p.k))
	}
	shift := uint(v%p.per) * uint(p.bits)
	wi := v / p.per
	p.words[wi] = p.words[wi]&^((1<<p.bits-1)<<shift) | uint64(r)<<shift
}

// Clone returns a deep copy.
func (p *Packed) Clone() *Packed {
	q := *p
	q.words = append([]uint64(nil), p.words...)
	return &q
}

// AppendAssign appends the unpacked entries to dst and returns dst.
func (p *Packed) AppendAssign(dst []int32) []int32 {
	for v := int32(0); v < p.n; v++ {
		dst = append(dst, p.Get(v))
	}
	return dst
}

// Words exposes the backing words (for serialization); the layout is
// fixed by (n, k), so two Packed with equal contents have equal words.
func (p *Packed) Words() []uint64 { return p.words }

// PackedFromWords rebuilds a packed vector from its serialized words
// (the layout Words exposes). The word count must match (n, k) exactly
// and every entry must be in [0, k) — a journal-recovery guard against
// decoding a vector that the writer could never have produced.
func PackedFromWords(n, k int32, words []uint64) (*Packed, error) {
	if k < 1 {
		return nil, fmt.Errorf("partition: packed k = %d must be positive", k)
	}
	if n < 0 {
		return nil, fmt.Errorf("partition: packed n = %d must be non-negative", n)
	}
	// The count is checked before anything is allocated: n comes from
	// the same untrusted bytes as words.
	if need := packedWords(n, k); len(words) != need {
		return nil, fmt.Errorf("partition: packed (n=%d, k=%d) needs %d words, got %d", n, k, need, len(words))
	}
	p := NewPacked(n, k)
	copy(p.words, words)
	for v := int32(0); v < n; v++ {
		if r := p.Get(v); r >= k {
			return nil, fmt.Errorf("partition: packed entry %d = %d outside [0,%d)", v, r, k)
		}
	}
	return p, nil
}

// Hash64 returns an order-sensitive FNV-1a digest of the contents,
// folding in n and k so vectors of different shape never collide by
// accident. Two Packed holding the same assignment hash identically.
func (p *Packed) Hash64() uint64 {
	h := detrand.FNVFold64(detrand.FNVOffset64, uint64(uint32(p.n)))
	h = detrand.FNVFold64(h, uint64(uint32(p.k)))
	for _, w := range p.words {
		h = detrand.FNVFold64(h, w)
	}
	return h
}
