package partition

// GainHeap is the lazy max-heap of (id, gain) entries that drives both FM
// kernels: ARAGON's pair refiner (ids are candidate slots) and METIS's
// bisection refinement (ids are vertices). A re-evaluation pushes a fresh
// entry instead of updating one in place, and PopValid discards the stale
// ones. Ties break by heap structure — Push stops sifting up on >=, a pop
// sifts down only past a strictly larger child, left before right — so
// the entry taken among equal gains depends on the push history, and both
// kernels' goldens pin it. The zero value is an empty heap.
type GainHeap struct {
	id []int32
	g  []int64
}

// Len returns the number of entries, stale ones included.
func (h *GainHeap) Len() int { return len(h.id) }

// Reset empties the heap, keeping its storage for reuse.
func (h *GainHeap) Reset() { h.id, h.g = h.id[:0], h.g[:0] }

// Push adds the entry (id, gain).
func (h *GainHeap) Push(id int32, gain int64) {
	h.id = append(h.id, id)
	h.g = append(h.g, gain)
	c := len(h.id) - 1
	for c > 0 {
		p := (c - 1) / 2
		if h.g[p] >= h.g[c] {
			break
		}
		h.swap(p, c)
		c = p
	}
}

// pop removes and returns the top entry. The heap must not be empty.
func (h *GainHeap) pop() (int32, int64) {
	id, g := h.id[0], h.g[0]
	last := len(h.id) - 1
	h.id[0], h.g[0] = h.id[last], h.g[last]
	h.id, h.g = h.id[:last], h.g[:last]
	c := 0
	for {
		l, r, s := 2*c+1, 2*c+2, c
		if l < last && h.g[l] > h.g[s] {
			s = l
		}
		if r < last && h.g[r] > h.g[s] {
			s = r
		}
		if s == c {
			break
		}
		h.swap(c, s)
		c = s
	}
	return id, g
}

// PopValid pops until it finds an entry that is fresh (gains[id] still
// equals its gain) and not done[id], and returns it; ok is false once the
// heap runs dry.
func (h *GainHeap) PopValid(gains []int64, done []bool) (id int32, gain int64, ok bool) {
	for h.Len() > 0 {
		id, gain = h.pop()
		if done[id] || gains[id] != gain {
			continue
		}
		return id, gain, true
	}
	return 0, 0, false
}

func (h *GainHeap) swap(i, j int) {
	h.id[i], h.id[j] = h.id[j], h.id[i]
	h.g[i], h.g[j] = h.g[j], h.g[i]
}
