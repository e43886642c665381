// Package apps provides the distributed graph applications the paper
// evaluates (§7.2) — Breadth-First Search and Single-Source Shortest
// Path — plus Weakly Connected Components and PageRank as extensions,
// all as vertex programs for the bsp engine. Each app also has a serial
// reference in the graph package against which results are verified.
package apps

import (
	"fmt"
	"math"

	"paragon/internal/bsp"
	"paragon/internal/graph"
)

// Unreached marks a vertex not reached by BFS/SSSP in the returned
// distance slices.
const Unreached = int64(-1)

const inf = int64(math.MaxInt64)

// BFS runs breadth-first search from src on the engine and returns the
// hop distance of every vertex (Unreached for unreachable ones) along
// with the run's execution result (JET, volume, supersteps).
func BFS(e *bsp.Engine, g *graph.Graph, src int32) ([]int64, bsp.Result, error) {
	if src < 0 || src >= g.NumVertices() {
		return nil, bsp.Result{}, fmt.Errorf("apps: BFS source %d out of range", src)
	}
	prog := bsp.Program{
		Init: func(v int32) (int64, bool) {
			if v == src {
				return 0, true
			}
			return inf, false
		},
		Compute: func(v int32, value, msg int64, ok bool, send func(int32, int64)) (int64, bool) {
			improved := !ok // the source's initial activation
			if ok && msg < value {
				value, improved = msg, true
			}
			if improved {
				for _, u := range g.Neighbors(v) {
					send(u, value+1)
				}
			}
			return value, false
		},
		Combine: minCombine,
	}
	res, err := e.Run(prog)
	if err != nil {
		return nil, res, err
	}
	return finish(res.Values), res, nil
}

// SSSP runs single-source shortest path (non-negative edge weights as
// distances) from src and returns the distance of every vertex.
func SSSP(e *bsp.Engine, g *graph.Graph, src int32) ([]int64, bsp.Result, error) {
	if src < 0 || src >= g.NumVertices() {
		return nil, bsp.Result{}, fmt.Errorf("apps: SSSP source %d out of range", src)
	}
	prog := bsp.Program{
		Init: func(v int32) (int64, bool) {
			if v == src {
				return 0, true
			}
			return inf, false
		},
		Compute: func(v int32, value, msg int64, ok bool, send func(int32, int64)) (int64, bool) {
			improved := !ok
			if ok && msg < value {
				value, improved = msg, true
			}
			if improved {
				adj := g.Neighbors(v)
				w := g.EdgeWeights(v)
				for i, u := range adj {
					send(u, value+int64(w[i]))
				}
			}
			return value, false
		},
		Combine: minCombine,
	}
	res, err := e.Run(prog)
	if err != nil {
		return nil, res, err
	}
	return finish(res.Values), res, nil
}

// WCC labels every vertex with the minimum vertex id of its weakly
// connected component.
func WCC(e *bsp.Engine, g *graph.Graph) ([]int64, bsp.Result, error) {
	prog := bsp.Program{
		Init: func(v int32) (int64, bool) { return int64(v), true },
		Compute: func(v int32, value, msg int64, ok bool, send func(int32, int64)) (int64, bool) {
			improved := !ok // initial round: everyone broadcasts
			if ok && msg < value {
				value, improved = msg, true
			}
			if improved {
				for _, u := range g.Neighbors(v) {
					send(u, value)
				}
			}
			return value, false
		},
		Combine: minCombine,
	}
	res, err := e.Run(prog)
	return res.Values, res, err
}

// PageRankScale is the fixed-point scale of PageRank values: a rank r is
// stored as r·PageRankScale.
const PageRankScale = int64(1_000_000_000)

// PageRank runs iters rounds of damped PageRank (d = 0.85) and returns
// the fixed-point ranks (multiply by 1/PageRankScale for probabilities).
// Isolated vertices keep the base rank.
func PageRank(e *bsp.Engine, g *graph.Graph, iters int) ([]int64, bsp.Result, error) {
	if iters < 1 {
		return nil, bsp.Result{}, fmt.Errorf("apps: PageRank needs >= 1 iteration")
	}
	n := int64(g.NumVertices())
	if n == 0 {
		return nil, bsp.Result{}, nil
	}
	base := PageRankScale * 15 / (100 * n)
	// remaining[v] counts the supersteps v still has to run.
	remaining := make([]int32, n)
	for i := range remaining {
		remaining[i] = int32(iters)
	}
	prog := bsp.Program{
		Init: func(v int32) (int64, bool) { return PageRankScale / n, true },
		Compute: func(v int32, value, sum int64, ok bool, send func(int32, int64)) (int64, bool) {
			if ok {
				value = base + sum*85/100
			}
			remaining[v]--
			if remaining[v] <= 0 {
				return value, false
			}
			if d := int64(g.Degree(v)); d > 0 {
				share := value / d
				for _, u := range g.Neighbors(v) {
					send(u, share)
				}
			}
			return value, true
		},
		Combine: func(a, b int64) int64 { return a + b },
	}
	res, err := e.Run(prog)
	return res.Values, res, err
}

func minCombine(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// finish converts internal inf markers to Unreached.
func finish(vals []int64) []int64 {
	out := make([]int64, len(vals))
	for i, v := range vals {
		if v == inf {
			out[i] = Unreached
		} else {
			out[i] = v
		}
	}
	return out
}
