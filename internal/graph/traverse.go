package graph

// Traversal utilities shared by the partitioners, the refiner's boundary
// extraction (k-hop BFS of §5 "Reducing Communication Volume"), and the
// reference implementations the BSP applications are tested against.

import (
	"runtime"
	"slices"
)

// BFSLevels runs a breadth-first search from src and returns the level
// (hop distance) of every vertex, with -1 for unreachable vertices.
func BFSLevels(g *Graph, src int32) []int32 {
	n := g.NumVertices()
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	if src < 0 || src >= n {
		return level
	}
	level[src] = 0
	queue := make([]int32, 0, 1024)
	queue = append(queue, src)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if level[u] < 0 {
				level[u] = level[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return level
}

// SSSPDistances runs Dijkstra's algorithm from src using edge weights as
// distances and returns the distance of every vertex, with -1 for
// unreachable vertices. It is the serial reference for the BSP SSSP.
func SSSPDistances(g *Graph, src int32) []int64 {
	n := g.NumVertices()
	const inf = int64(-1)
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = inf
	}
	if src < 0 || src >= n {
		return dist
	}
	h := &distHeap{}
	dist[src] = 0
	h.push(distItem{src, 0})
	for h.len() > 0 {
		it := h.pop()
		if dist[it.v] != it.d {
			continue // stale entry
		}
		adj := g.Neighbors(it.v)
		w := g.EdgeWeights(it.v)
		for i, u := range adj {
			nd := it.d + int64(w[i])
			if dist[u] == inf || nd < dist[u] {
				dist[u] = nd
				h.push(distItem{u, nd})
			}
		}
	}
	return dist
}

type distItem struct {
	v int32
	d int64
}

// distHeap is a minimal binary min-heap on distance; using a concrete type
// avoids container/heap interface overhead in the hot loop.
type distHeap struct{ a []distItem }

func (h *distHeap) len() int { return len(h.a) }

func (h *distHeap) push(it distItem) {
	h.a = append(h.a, it)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p].d <= h.a[i].d {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *distHeap) pop() distItem {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < last && h.a[l].d < h.a[s].d {
			s = l
		}
		if r < last && h.a[r].d < h.a[s].d {
			s = r
		}
		if s == i {
			break
		}
		h.a[i], h.a[s] = h.a[s], h.a[i]
		i = s
	}
	return top
}

// ConnectedComponents labels each vertex with a component id in [0, #comp)
// and returns the labels plus the component count.
func ConnectedComponents(g *Graph) ([]int32, int32) {
	n := g.NumVertices()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var next int32
	queue := make([]int32, 0, 1024)
	for s := int32(0); s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = next
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, u := range g.Neighbors(v) {
				if comp[u] < 0 {
					comp[u] = next
					queue = append(queue, u)
				}
			}
		}
		next++
	}
	return comp, next
}

// ExpandFrontier appends to dst[:0] the set of vertices reachable from
// the seed set within k hops (including the seeds themselves, k=0 keeps
// just the seeds). It implements the k-hop boundary expansion used to
// reduce communication volume in §5 of the paper. The result is sorted
// and deduplicated; pass a retained dst to amortize the output
// allocation across calls (the per-call BFS bookkeeping is internal).
//
// The refinement stack expands its masks with partition.Bitset.Expand (the
// mask is the visited set: no map, no sort). This one stays as the oracle
// that shares nothing with it: TestPairCandidatesMatchScan, portfolio tests.
func ExpandFrontier(g *Graph, seeds []int32, k int, dst []int32) []int32 {
	n := g.NumVertices()
	seen := make(map[int32]struct{}, len(seeds)*2)
	cur := make([]int32, 0, len(seeds))
	for _, s := range seeds {
		if s < 0 || s >= n {
			continue
		}
		if _, ok := seen[s]; !ok {
			seen[s] = struct{}{}
			cur = append(cur, s)
		}
	}
	for hop := 0; hop < k; hop++ {
		var next []int32
		for _, v := range cur {
			for _, u := range g.Neighbors(v) {
				if _, ok := seen[u]; !ok {
					seen[u] = struct{}{}
					next = append(next, u)
				}
			}
		}
		if len(next) == 0 {
			break
		}
		cur = next
	}
	out := dst[:0]
	for v := range seen {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// Induced builds the subgraph of g induced by verts (which need not be
// sorted and must not repeat), preserving vertex weights, sizes, and
// internal edges. It returns the subgraph (local ids are positions in
// verts) and the local→global mapping.
//
// A dense index over g's vertices maps each global id to its local one
// (−1 outside verts), and FromSymmetricRows fills the rows straight from
// g's, runtime.GOMAXPROCS(0) workers wide: the same CSR at every worker
// count, and the one Builder.Build makes from the same edges.
func Induced(g *Graph, verts []int32) (*Graph, []int32) {
	n := int32(len(verts))
	local := make([]int32, g.NumVertices())
	for i := range local {
		local[i] = -1
	}
	vwgt := make([]int32, n)
	vsize := make([]int32, n)
	for i, v := range verts {
		local[v] = int32(i)
		vwgt[i], vsize[i] = g.vwgt[v], g.vsize[v]
	}
	sub := FromSymmetricRows(n, vwgt, vsize,
		func(i int32) int32 {
			var d int32
			for _, u := range g.Neighbors(verts[i]) {
				if local[u] >= 0 {
					d++
				}
			}
			return d
		},
		func(i int32, to, w []int32) {
			ew := g.EdgeWeights(verts[i])
			k := 0
			for j, u := range g.Neighbors(verts[i]) {
				if lu := local[u]; lu >= 0 {
					to[k], w[k] = lu, ew[j]
					k++
				}
			}
		}, runtime.GOMAXPROCS(0))
	return sub, append([]int32(nil), verts...)
}
