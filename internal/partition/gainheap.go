package partition

import "slices"

// GainHeap is the lazy max-heap of (id, gain) entries that drives both FM
// kernels: ARAGON's pair refiner (ids are candidate slots) and METIS's
// bisection refinement (ids are vertices). A re-evaluation pushes a fresh
// entry instead of updating one in place, and PopValid discards the stale
// ones. Entries are interleaved in one array and sift through a hole, each
// moved once per level. Ties break by heap structure — a sift-up stops
// below a parent of >= gain, a pop's sift-down moves the hole only into a
// strictly larger child, the right one only when strictly larger than the
// left — so the entry taken among equal gains depends on the push history,
// and both kernels' goldens pin it. The zero value is an empty heap.
type GainHeap struct {
	e []gainEntry
}

type gainEntry struct {
	g  int64
	id int32
}

// Len returns the number of entries, stale ones included.
func (h *GainHeap) Len() int { return len(h.e) }

// Reset empties the heap, keeping its storage for reuse.
func (h *GainHeap) Reset() { h.e = h.e[:0] }

// Push adds the entry (id, gain).
func (h *GainHeap) Push(id int32, gain int64) {
	h.e = append(h.e, gainEntry{})
	h.up(len(h.e)-1, gainEntry{gain, id})
}

// PushAll adds (i, gains[i]) for every i, ascending: the array len(gains)
// Push calls build, grown once.
func (h *GainHeap) PushAll(gains []int64) {
	n := len(h.e)
	h.e = slices.Grow(h.e, len(gains))[:n+len(gains)]
	for i, g := range gains {
		h.up(n+i, gainEntry{g, int32(i)})
	}
}

// up settles x from the hole at c toward the root.
func (h *GainHeap) up(c int, x gainEntry) {
	for c > 0 {
		p := (c - 1) / 2
		if h.e[p].g >= x.g {
			break
		}
		h.e[c] = h.e[p]
		c = p
	}
	h.e[c] = x
}

// pop removes and returns the top entry. The heap must not be empty.
func (h *GainHeap) pop() gainEntry {
	top, last := h.e[0], len(h.e)-1
	x := h.e[last]
	c := 0
	for {
		s := 2*c + 1
		if s >= last {
			break
		}
		if r := s + 1; r < last && h.e[r].g > h.e[s].g {
			s = r
		}
		if h.e[s].g <= x.g {
			break
		}
		h.e[c] = h.e[s]
		c = s
	}
	h.e[c] = x
	h.e = h.e[:last]
	return top
}

// PopValid pops until it finds an entry that is fresh (gains[id] still
// equals its gain) and not done[id], and returns it; ok is false once the
// heap runs dry.
func (h *GainHeap) PopValid(gains []int64, done []bool) (id int32, gain int64, ok bool) {
	for h.Len() > 0 {
		t := h.pop()
		if done[t.id] || gains[t.id] != t.g {
			continue
		}
		return t.id, t.g, true
	}
	return 0, 0, false
}
