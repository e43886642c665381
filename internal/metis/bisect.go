package metis

import (
	"math/rand"

	"paragon/internal/graph"
	"paragon/internal/partition"
)

// bisection state: side[v] ∈ {0,1}.

// initialBisection produces a 2-way split of g whose side-0 weight is as
// close as possible to target0 (a fraction of total weight), trying
// several greedy graph-growing runs and keeping the lowest cut.
func initialBisection(g *graph.Graph, target0 float64, rng *rand.Rand, tries int) []int8 {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	var best []int8
	bestCut := int64(-1)
	for t := 0; t < tries; t++ {
		side := growBisection(g, target0, rng)
		cut := cutWeight(g, side)
		if bestCut < 0 || cut < bestCut {
			best, bestCut = side, cut
		}
	}
	return best
}

// growBisection grows side 0 by BFS from a random seed until it holds
// target0 of the total vertex weight; everything else is side 1.
func growBisection(g *graph.Graph, target0 float64, rng *rand.Rand) []int8 {
	n := g.NumVertices()
	side := make([]int8, n)
	for i := range side {
		side[i] = 1
	}
	want := int64(target0 * float64(g.TotalVertexWeight()))
	var got int64
	visited := make([]bool, n)
	queue := make([]int32, 0, 256)
	for got < want {
		// Pick an unvisited seed (handles disconnected graphs).
		seed := int32(-1)
		for tries := 0; tries < 16; tries++ {
			c := int32(rng.Intn(int(n)))
			if !visited[c] {
				seed = c
				break
			}
		}
		if seed < 0 {
			for v := int32(0); v < n; v++ {
				if !visited[v] {
					seed = v
					break
				}
			}
		}
		if seed < 0 {
			break // everything visited
		}
		visited[seed] = true
		queue = append(queue[:0], seed)
		for len(queue) > 0 && got < want {
			v := queue[0]
			queue = queue[1:]
			side[v] = 0
			got += int64(g.VertexWeight(v))
			for _, u := range g.Neighbors(v) {
				if !visited[u] {
					visited[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	return side
}

// cutWeight returns the total weight of edges crossing the bisection.
func cutWeight(g *graph.Graph, side []int8) int64 {
	var cut int64
	for v := int32(0); v < g.NumVertices(); v++ {
		adj := g.Neighbors(v)
		w := g.EdgeWeights(v)
		for i, u := range adj {
			if v < u && side[v] != side[u] {
				cut += int64(w[i])
			}
		}
	}
	return cut
}

// sideWeights returns the vertex-weight mass of each side.
func sideWeights(g *graph.Graph, side []int8) [2]int64 {
	var w [2]int64
	for v := int32(0); v < g.NumVertices(); v++ {
		w[side[v]] += int64(g.VertexWeight(v))
	}
	return w
}

// fmRefine runs Fiduccia–Mattheyses passes on the bisection: repeatedly
// move the highest-gain movable vertex (cut reduction), allow a bounded
// number of negative-gain moves to escape local minima, and roll back to
// the best prefix. maxW bounds each side's weight; passes bounds the
// number of full FM passes.
//
// bnd holds a superset of the boundary (the vertices with a neighbor on
// the other side) on entry and is left holding one for the refined side.
// A pass scans only the rows of bnd, seeding the heap with the boundary
// vertices in ascending order; an interior vertex's gain is computed from
// its row when a neighbor's move first touches it. An unlocked vertex's
// gain always equals its current external − internal weight, so this is
// the heap a full scan of every row would seed and update.
func fmRefine(g *graph.Graph, side []int8, bnd *partition.Bitset, maxW [2]int64, passes int) {
	n := g.NumVertices()
	if n < 2 {
		return
	}
	const badMoveLimit = 64
	gain := make([]int64, n)
	known := partition.NewBitset(n) // gain[v] is current this pass
	locked := make([]bool, n)
	w := sideWeights(g, side)
	var h partition.GainHeap
	var history, lockedList []int32 // moved vertices in move order; every locked vertex
	// rescan sets gain[v] from v's row and returns v's external weight.
	rescan := func(v int32) int64 {
		var ext, internal int64
		ew := g.EdgeWeights(v)
		for i, u := range g.Neighbors(v) {
			if side[u] == side[v] {
				internal += int64(ew[i])
			} else {
				ext += int64(ew[i])
			}
		}
		gain[v] = ext - internal
		known.Set(v)
		return ext
	}

	for pass := 0; pass < passes; pass++ {
		h.Reset()
		known.ClearAll()
		// Edge weights are positive, so v is boundary iff ext > 0.
		bnd.Range(func(v int32) {
			if rescan(v) > 0 {
				h.Push(v, gain[v])
			} else {
				bnd.Unset(v)
			}
		})
		history, lockedList = history[:0], lockedList[:0]
		var prefixGain, bestGain int64
		bestLen := 0
		bad := 0
		for h.Len() > 0 && bad < badMoveLimit {
			v, gv, ok := h.PopValid(gain, locked)
			if !ok {
				break
			}
			locked[v] = true
			lockedList = append(lockedList, v)
			from := side[v]
			to := 1 - from
			if w[to]+int64(g.VertexWeight(v)) > maxW[to] {
				continue // inadmissible this pass
			}
			// Apply the move.
			side[v] = to
			w[from] -= int64(g.VertexWeight(v))
			w[to] += int64(g.VertexWeight(v))
			history = append(history, v)
			prefixGain += gv
			if prefixGain > bestGain {
				bestGain = prefixGain
				bestLen = len(history)
				bad = 0
			} else {
				bad++
			}
			// Update neighbor gains.
			adj := g.Neighbors(v)
			ew := g.EdgeWeights(v)
			for i, u := range adj {
				if locked[u] {
					continue
				}
				switch {
				case !known.Get(u):
					rescan(u) // first touch: v's move is already in u's row
				case side[u] == from:
					// Edge weight counted twice: once for u's external/internal
					// flip relative to v's old side, once for the new side.
					gain[u] += 2 * int64(ew[i])
				default:
					gain[u] -= 2 * int64(ew[i])
				}
				h.Push(u, gain[u])
			}
		}
		// Roll back moves beyond the best prefix.
		for i := len(history) - 1; i >= bestLen; i-- {
			v := history[i]
			to := side[v]
			from := 1 - to
			side[v] = from
			w[to] -= int64(g.VertexWeight(v))
			w[from] += int64(g.VertexWeight(v))
		}
		// Only a moved vertex and its neighbors can have become boundary.
		for _, v := range history {
			bnd.Set(v)
			for _, u := range g.Neighbors(v) {
				bnd.Set(u)
			}
		}
		for _, v := range lockedList {
			locked[v] = false
		}
		if bestGain <= 0 {
			break // pass made no progress
		}
	}
}
