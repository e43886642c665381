package partition

import "paragon/internal/graph"

// SetMaxProfileEntries changes the arena limit NewNeighborProfile refuses
// past, so a test (TestRefineRefusesOversizedProfile lives outside the
// package, to import the refiner) reaches the refusal with a graph it can
// hold. It returns the call that restores the old limit.
func SetMaxProfileEntries(n int64) (restore func()) {
	old := maxProfileEntries
	maxProfileEntries = n
	return func() { maxProfileEntries = old }
}

// SetMaxObjective changes the bound CheckObjective refuses at, so tests
// reach the refusal with a graph they can hold. It returns the call that
// restores the old bound.
func SetMaxObjective(n int64) (restore func()) {
	old := maxObjective
	maxObjective = n
	return func() { maxObjective = old }
}

// IndexState is what an Index maintains, exposed to the external tests.
type IndexState struct {
	Ext      []int32
	Incident []int64
}

// State returns ix's maintained structures; the slices alias the index.
func (ix *Index) State() IndexState {
	return IndexState{Ext: ix.ext, Incident: ix.incident}
}

// SerialIndexState derives an index's structures for p over g in one
// ascending pass over the vertices, as a serial Rebuild would: the
// reference BuildIndex and Rebuild must reproduce exactly.
func SerialIndexState(g *graph.Graph, p *Partitioning) IndexState {
	n := g.NumVertices()
	s := IndexState{
		Ext:      make([]int32, n),
		Incident: make([]int64, p.K),
	}
	for v := int32(0); v < n; v++ {
		pv := p.Assign[v]
		s.Incident[pv] += int64(g.Degree(v))
		var ext int32
		for _, u := range g.Neighbors(v) {
			if p.Assign[u] != pv {
				ext++
			}
		}
		s.Ext[v] = ext
	}
	return s
}
