package paragon

import (
	"paragon/internal/aragon"
	"paragon/internal/partition"
)

// Movable is the movable-vertex mask of §5 over a master index, and how
// it is kept current. The boundary bitset is filled by one scan on the
// first Repair after Reset; afterwards Repair re-evaluates only the
// vertices Moved reported — a moved vertex and its neighbors, the only
// ones whose boundary status a move can change — so its cost follows the
// moved volume, not |V|. At a positive k-hop radius the mask is the
// boundary's expansion, a breadth-first search with that mask itself as
// the visited set. The zero value is ready for Reset. The driver repairs
// once per round; a portfolio member at every barrier (k-hop 0) or once
// per round.
type Movable struct {
	ix       *partition.Index
	khop     int
	filled   bool
	bmask    *partition.Bitset // the boundary
	kmask    *partition.Bitset // k-hop > 0: its expansion, allocated on first use
	dirty    []int32           // moved vertices + neighbors since the last Repair
	frontier []int32           // k-hop > 0: the set bits of kmask, in discovery order
	previous []int32           // k-hop > 0: the frontier before, whose kmask bits the next expansion clears
}

// Reset points the mask at ix, radius khop, with no move seen; the next
// Repair, on an engine opened since, scans the whole boundary.
func (m *Movable) Reset(ix *partition.Index, khop int) {
	if m.ix == nil || m.ix.Graph().NumVertices() != ix.Graph().NumVertices() {
		*m = Movable{bmask: partition.NewBitset(ix.Graph().NumVertices())}
	}
	m.ix, m.khop, m.filled = ix, khop, false
	m.dirty = m.dirty[:0]
}

// Moved records kept moves the index has applied.
func (m *Movable) Moved(moves []aragon.Move) {
	g := m.ix.Graph()
	for _, mv := range moves {
		m.dirty = append(m.dirty, mv.V)
		m.dirty = append(m.dirty, g.Neighbors(mv.V)...)
	}
}

// Repair brings the mask in line with the index and hands it to e with the
// vertices whose bit changed (WaveEngine.SetMask).
func (m *Movable) Repair(e *WaveEngine) {
	// dirty becomes the vertices whose boundary bit changed since the last
	// repair: what is left of the recorded ones once those that kept their
	// status are dropped. The first repair lists none — the mask is new to
	// an engine opened since Reset, which takes it whole.
	if !m.filled {
		m.bmask.ClearAll()
		for v := int32(0); v < m.bmask.Len(); v++ {
			if m.ix.IsBoundary(v) {
				m.bmask.Set(v)
			}
		}
		m.dirty = m.dirty[:0]
		m.filled = true
	} else {
		flipped := m.dirty[:0]
		for _, v := range m.dirty {
			if on := m.ix.IsBoundary(v); on != m.bmask.Get(v) {
				m.bmask.SetTo(v, on)
				flipped = append(flipped, v)
			}
		}
		m.dirty = flipped
	}
	mask, changed := m.bmask, m.dirty
	if m.khop > 0 {
		// kmask loses members of its old frontier only and gains members of
		// its new one only.
		if m.kmask == nil {
			m.kmask = partition.NewBitset(m.bmask.Len())
		}
		m.previous, m.frontier = m.frontier, m.previous
		for _, v := range m.previous {
			m.kmask.Unset(v)
		}
		m.frontier = m.kmask.Expand(m.ix.Graph(), m.bmask.AppendSet(m.frontier[:0]), m.khop)
		e.SetMask(m.kmask, m.previous) // all of them materialized before
		mask, changed = m.kmask, m.frontier
	}
	e.SetMask(mask, changed)
	m.dirty = m.dirty[:0]
}
