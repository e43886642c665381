package graph

import "fmt"

// Builder accumulates edges and produces an immutable CSR Graph. Edges may
// be added in any order and in either direction; duplicates are merged by
// summing their weights. Self-loops are dropped. Builders are not safe for
// concurrent use.
type Builder struct {
	n     int32
	src   []int32
	dst   []int32
	w     []int32
	vwgt  []int32
	vsize []int32
}

// NewBuilder returns a builder for a graph with n vertices. All vertex
// weights and sizes default to 1.
func NewBuilder(n int32) *Builder {
	b := &Builder{n: n, vwgt: make([]int32, n), vsize: make([]int32, n)}
	for i := range b.vwgt {
		b.vwgt[i] = 1
		b.vsize[i] = 1
	}
	return b
}

// Reserve pre-sizes the edge staging arrays for `edges` AddEdge calls, so
// streaming a known-size edge set (a generator shard merge, a file load)
// does not pay O(log m) growth reallocations — at the 10M-vertex scale
// the staging arrays are the peak allocation of a build.
func (b *Builder) Reserve(edges int64) {
	if int64(cap(b.src)) >= edges {
		return
	}
	b.src = append(make([]int32, 0, edges), b.src...)
	b.dst = append(make([]int32, 0, edges), b.dst...)
	b.w = append(make([]int32, 0, edges), b.w...)
}

// NumVertices returns the number of vertices the builder was created with.
func (b *Builder) NumVertices() int32 { return b.n }

// AddEdge records the undirected edge {u,v} with weight 1.
func (b *Builder) AddEdge(u, v int32) { b.AddWeightedEdge(u, v, 1) }

// AddWeightedEdge records the undirected edge {u,v} with weight w.
// Out-of-range endpoints or non-positive weights panic: they indicate a
// programming error in the generator or loader feeding the builder.
func (b *Builder) AddWeightedEdge(u, v, w int32) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if w <= 0 {
		panic(fmt.Sprintf("graph: non-positive edge weight %d on (%d,%d)", w, u, v))
	}
	if u == v {
		return // drop self-loops, as METIS does
	}
	b.src = append(b.src, u)
	b.dst = append(b.dst, v)
	b.w = append(b.w, w)
}

// AppendIsolated appends (ascending) every vertex that no staged edge
// touches. It scans the staging arrays, not a built graph — duplicate
// edges still mark both endpoints — so generators can attach isolates
// without paying for a throwaway Build.
func (b *Builder) AppendIsolated(dst []int32) []int32 {
	touched := make([]uint64, (int64(b.n)+63)/64)
	for i := range b.src {
		touched[b.src[i]>>6] |= 1 << (uint32(b.src[i]) & 63)
		touched[b.dst[i]>>6] |= 1 << (uint32(b.dst[i]) & 63)
	}
	for v := int32(0); v < b.n; v++ {
		if touched[v>>6]&(1<<(uint32(v)&63)) == 0 {
			dst = append(dst, v)
		}
	}
	return dst
}

// SetVertexWeight sets w(v) for the vertex under construction.
func (b *Builder) SetVertexWeight(v, w int32) { b.vwgt[v] = w }

// SetVertexSize sets vs(v) for the vertex under construction.
func (b *Builder) SetVertexSize(v, s int32) { b.vsize[v] = s }

// Build produces the CSR graph: it symmetrizes, sorts each adjacency list,
// and merges duplicate edges by summing weights. The builder may be reused
// afterwards, though that is rarely useful.
//
// Sorting is a single global counting pass, not a per-vertex comparison
// sort: pass A buckets every half-edge by its destination vertex, pass B
// replays the destinations in ascending order and scatters each bucket
// into its sources' CSR regions — so every region fills in ascending
// neighbor order as a side effect of the scan order. O(|V| + |E|) time,
// a constant number of O(|E|)-sized allocations, and no comparison sorts
// or per-vertex temporaries, which is what lets a 10M-vertex graph build
// near-linearly. Duplicates of an edge land adjacently and are merged by
// summing (order-free), so the output is identical to a sort-based build.
func (b *Builder) Build() *Graph {
	n := int64(b.n)
	// Count half-edges per vertex (each input edge contributes to both
	// ends); deg doubles as the bucket and region offset table since the
	// graph is symmetric.
	deg := make([]int64, n+1)
	for i := range b.src {
		deg[b.src[i]+1]++
		deg[b.dst[i]+1]++
	}
	for v := int64(1); v <= n; v++ {
		deg[v] += deg[v-1]
	}
	xadj := deg // prefix sums; deg[v] is now the start offset of v's list
	m := int64(len(b.src)) * 2
	// Pass A: bucket half-edges by destination, recording the source and
	// weight. Order within a bucket is irrelevant — pass B's scan order
	// is what sorts the output.
	bsrc := make([]int32, m)
	bw := make([]int32, m)
	fill := make([]int64, n)
	for i := range b.src {
		u, v, w := b.src[i], b.dst[i], b.w[i]
		p := xadj[u] + fill[u]
		bsrc[p], bw[p] = v, w // half-edge v->u, bucketed at destination u
		fill[u]++
		p = xadj[v] + fill[v]
		bsrc[p], bw[p] = u, w
		fill[v]++
	}
	// Pass B: replay destinations ascending; each source's region
	// receives its neighbors in ascending order.
	clear(fill)
	adj := make([]int32, m)
	ewgt := make([]int32, m)
	var ewHalf, vwTotal, vsTotal int64
	for d := int64(0); d < n; d++ {
		for p := xadj[d]; p < xadj[d+1]; p++ {
			s := bsrc[p]
			q := xadj[s] + fill[s]
			adj[q], ewgt[q] = int32(d), bw[p]
			ewHalf += int64(bw[p])
			fill[s]++
		}
		vwTotal += int64(b.vwgt[d])
		vsTotal += int64(b.vsize[d])
	}
	// Merge duplicates in place (lists are sorted, duplicates adjacent).
	outAdj := adj[:0]
	outW := ewgt[:0]
	newXadj := make([]int64, n+1)
	for v := int64(0); v < n; v++ {
		lo, hi := xadj[v], xadj[v+1]
		newXadj[v] = int64(len(outAdj))
		for i := lo; i < hi; i++ {
			if k := len(outAdj); k > int(newXadj[v]) && outAdj[k-1] == adj[i] {
				outW[k-1] += ewgt[i] // merge duplicate edge
			} else {
				outAdj = append(outAdj, adj[i])
				outW = append(outW, ewgt[i])
			}
		}
	}
	newXadj[n] = int64(len(outAdj))
	// Without a merged duplicate the arrays are already exact; after a
	// merge they are copied so the graph does not pin the longer ones.
	if int64(len(outAdj)) < m {
		outAdj = append([]int32(nil), outAdj...)
		outW = append([]int32(nil), outW...)
	}
	g := &Graph{
		xadj:  newXadj,
		adj:   outAdj,
		ewgt:  outW,
		vwgt:  append([]int32(nil), b.vwgt...),
		vsize: append([]int32(nil), b.vsize...),

		ewTotal: ewHalf / 2, vwTotal: vwTotal, vsTotal: vsTotal,
	}
	return g
}
