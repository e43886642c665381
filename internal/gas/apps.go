package gas

import "paragon/internal/graph"

// Reference GAS applications.

// Components runs min-label propagation to convergence: every vertex
// ends with the smallest vertex id in its connected component.
func Components(e *Engine, g *graph.Graph) (Result, error) {
	prog := Program{
		Init:   func(v int32) int64 { return int64(v) },
		Gather: func(v, u int32, uVal int64, w int32) int64 { return uVal },
		Sum: func(a, b int64) int64 {
			if a < b {
				return a
			}
			return b
		},
		Apply: func(v int32, old, sum int64, hasSum bool) (int64, bool) {
			if hasSum && sum < old {
				return sum, true
			}
			return old, false
		},
	}
	return e.Run(prog)
}
