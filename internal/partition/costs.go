package partition

import (
	"fmt"
	"math"
	"slices"

	"paragon/internal/graph"
)

// The objective grid (DESIGN.md §10). CheckCosts puts a cost matrix on
// integer multiples of 2^Exp, Exp = ⌊log₂ c_min⌋ − CostBits with c_min
// its smallest non-zero off-diagonal entry, and Alpha puts α on multiples
// of 2^−AlphaBits. A communication term α·w·c is then Alpha(α)·w·C and a
// migration term vs·c is vs·C·2^AlphaBits: int64s in objective units of
// 2^(Exp−AlphaBits). Integer and dyadic matrices land on the grid
// exactly, and Real converts back by an exact exponent shift.
const (
	CostBits  = 10
	AlphaBits = 16
)

// maxObjective is the score bound CheckObjective refuses at; tests lower
// it to reach the refusal with a graph they can hold.
var maxObjective int64 = 1 << 62

// Costs is a k×k relative cost matrix on the grid: c[i][j] = C[i·K+j]·2^Exp.
type Costs struct {
	K       int32
	C       []int64
	Exp     int
	Uniform bool // every off-diagonal entry is equal: standard FM's matrices
}

// CheckCosts validates c as the relative cost matrix of a k-way
// decomposition — at least k rows of at least k entries, each finite and
// non-negative — and quantises it. Every refinement entry point calls it
// on the caller's matrix; the kernels read only the quantised one.
func CheckCosts(c [][]float64, k int32) (*Costs, error) {
	if int32(len(c)) < k {
		return nil, fmt.Errorf("cost matrix has %d rows for k=%d", len(c), k)
	}
	cmin := math.Inf(1)
	for i, row := range c[:k] {
		if int32(len(row)) < k {
			return nil, fmt.Errorf("cost matrix row %d has %d entries for k=%d", i, len(row), k)
		}
		for j, x := range row[:k] {
			if !(x >= 0) || math.IsInf(x, 1) {
				return nil, fmt.Errorf("cost matrix entry (%d,%d) is %v; costs must be finite and non-negative", i, j, x)
			}
			if i != j && x > 0 {
				cmin = min(cmin, x)
			}
		}
	}
	cs := &Costs{K: k, C: make([]int64, 0, int(k)*int(k)), Exp: -CostBits, Uniform: true}
	if cmin < math.Inf(1) {
		_, e := math.Frexp(cmin) // cmin = f·2^e, f ∈ [0.5, 1)
		cs.Exp = e - 1 - CostBits
	}
	for i, row := range c[:k] {
		for j, x := range row[:k] {
			q := math.Round(math.Ldexp(x, -cs.Exp))
			if q >= 1<<62 {
				return nil, fmt.Errorf("cost matrix entry (%d,%d) = %v is over 2^%d times its smallest non-zero entry", i, j, x, 62-CostBits)
			}
			cs.C = append(cs.C, int64(q))
			if i != j {
				cs.Uniform = cs.Uniform && int64(q) == cs.At(0, 1)
			}
		}
	}
	return cs, nil
}

// At returns c[i][j] on the grid.
func (cs *Costs) At(i, j int32) int64 { return cs.C[i*cs.K+j] }

// Row returns row i of the quantised matrix.
func (cs *Costs) Row(i int32) []int64 { return cs.C[i*cs.K : (i+1)*cs.K] }

// Real converts a value in objective units to the float the reports
// carry: exact for any value of at most 53 significant bits.
func (cs *Costs) Real(x int64) float64 { return math.Ldexp(float64(x), cs.Exp-AlphaBits) }

// Alpha returns α on its grid. CheckObjective vets α first.
func Alpha(alpha float64) int64 { return int64(math.Round(math.Ldexp(alpha, AlphaBits))) }

// CheckObjective refuses, up front, an input whose integer objective
// could overflow: an α that is not finite and non-negative, or a largest
// possible score max C·(Alpha(α)·Σ w(e) + Σ vs(v)·2^AlphaBits) of 2^62 or
// more — every gain and every prefix of moves is the difference of two
// scores. Eq. 10's server cost, at most K·max C per half-edge, is held to
// the same bound. It is called wherever CheckCosts is, once α has its
// default.
func CheckObjective(g *graph.Graph, cs *Costs, alpha float64) error {
	if !(alpha >= 0) || math.IsInf(alpha, 1) {
		return fmt.Errorf("α = %v must be finite and non-negative", alpha)
	}
	cmax := float64(slices.Max(cs.C))
	score := cmax * (math.Round(math.Ldexp(alpha, AlphaBits))*float64(g.TotalEdgeWeight()) + math.Ldexp(float64(g.TotalVertexSize()), AlphaBits))
	if b := max(score, cmax*float64(cs.K)*float64(g.NumHalfEdges())); b >= float64(maxObjective) {
		return fmt.Errorf("the objective can reach %.3g grid units, past the int64 limit of 2^62; refine with a smaller α, a narrower cost range or a smaller graph", b)
	}
	return nil
}
