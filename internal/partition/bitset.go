package partition

import (
	"math/bits"

	"paragon/internal/graph"
)

// Bitset is a fixed-length bit-packed vertex mask: the boundary/allowed
// masks of the refinement pipeline, 64 vertices per word instead of one
// byte each. At the 10M-vertex scale the []bool form of the movable
// mask alone is 10 MB of scratch touched once per round; the packed
// form is 1.25 MB and lets a walk over the set bits (Range, AppendSet)
// skip 64 vertices per zero word.
type Bitset struct {
	words []uint64
	n     int32
}

// NewBitset returns an all-zero bitset over n vertices.
func NewBitset(n int32) *Bitset {
	return &Bitset{words: make([]uint64, (int(n)+63)/64), n: n}
}

// Len returns the number of bits (vertices) the set covers.
func (b *Bitset) Len() int32 { return b.n }

// Get reports bit v.
func (b *Bitset) Get(v int32) bool {
	return b.words[v>>6]&(1<<(uint32(v)&63)) != 0
}

// Set sets bit v.
func (b *Bitset) Set(v int32) {
	b.words[v>>6] |= 1 << (uint32(v) & 63)
}

// Unset clears bit v.
func (b *Bitset) Unset(v int32) {
	b.words[v>>6] &^= 1 << (uint32(v) & 63)
}

// SetTo sets bit v to on.
func (b *Bitset) SetTo(v int32, on bool) {
	if on {
		b.Set(v)
	} else {
		b.Unset(v)
	}
}

// ClearAll zeroes the whole set in O(n/64).
func (b *Bitset) ClearAll() {
	clear(b.words)
}

// Expand is the k-hop expansion of §5 as a breadth-first search with b as
// the visited set: it sets the bits of the distinct, unset vertices of list
// and of every unset vertex within hops hops of them, appends those to list
// in discovery order and returns it — O(Σ deg over all but the last level).
func (b *Bitset) Expand(g *graph.Graph, list []int32, hops int) []int32 {
	for _, v := range list {
		b.Set(v)
	}
	level := 0
	for hop := 0; hop < hops && level < len(list); hop++ {
		next := len(list)
		for _, v := range list[level:next] {
			for _, u := range g.Neighbors(v) {
				if !b.Get(u) {
					b.Set(u)
					list = append(list, u)
				}
			}
		}
		level = next
	}
	return list
}

// AppendSet appends every set bit to dst in ascending order and returns
// dst.
func (b *Bitset) AppendSet(dst []int32) []int32 {
	for wi, w := range b.words {
		base := int32(wi << 6)
		for w != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// Range calls fn for every set bit, ascending.
func (b *Bitset) Range(fn func(v int32)) {
	for wi, w := range b.words {
		base := int32(wi << 6)
		for w != 0 {
			fn(base + int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}
