package paragon

import (
	"fmt"
	"slices"
	"testing"

	"paragon/internal/aragon"
	"paragon/internal/graph"
	"paragon/internal/partition"
)

// refineSerialUnderTest is the production serial ARAGON entry point the
// serial goldens pin.
var refineSerialUnderTest = RefineSerial

// serialReference is serial ARAGON's historical pair loop, kept as the
// reference the production sweep is held to: one refiner over a bare
// Index, every pair (i < j) in lexicographic order, each pair's candidates
// its boundary as the index maintains it through every earlier pair's
// moves. orig is the Eq. 9 migration reference; p is refined in place. It
// returns the aggregate result and each pair's kept moves, in pair order.
func serialReference(g *graph.Graph, p *partition.Partitioning, orig []int32, cs *partition.Costs, cfg aragon.Config) (aragon.Result, [][]aragon.Move) {
	cfg = cfg.WithDefaults()
	loads := p.Weights(g)
	maxLoad := partition.BalanceBound(g, p.K, cfg.MaxImbalance)
	ref := aragon.NewRefiner(g, partition.BuildIndex(g, p), cfg)
	var total aragon.Result
	var moves [][]aragon.Move
	for i := int32(0); i < p.K; i++ {
		for j := i + 1; j < p.K; j++ {
			kept, r := ref.RefinePairScheduled(nil, orig, i, j, cs, loads, maxLoad, nil)
			total.Moves += r.Moves
			total.Gain += r.Gain
			total.PairsSeen += r.PairsSeen
			moves = append(moves, kept)
		}
	}
	return total, moves
}

// TestSweepSerialMatchesReference holds serial ARAGON on the wave engine
// to the bare-Index reference loop move for move: on every input of the
// serial goldens at k = 2, 7 and 16 under all three matrices, and on the
// drifted input (orig ≠ Assign), every pair keeps the same moves in the
// same order, and the Results and refined assignments are equal.
func TestSweepSerialMatchesReference(t *testing.T) {
	defer func() { testWaveSynced = nil }()
	cfg := aragon.Config{}.WithDefaults()
	run := func(t *testing.T, name string, g *graph.Graph, p0 *partition.Partitioning, orig []int32, c [][]float64) (moves int) {
		t.Helper()
		cs := quantised(t, c)
		pRef := p0.Clone()
		wantRes, wantMoves := serialReference(g, pRef, orig, cs, cfg)
		p := p0.Clone()
		var gotMoves [][]aragon.Move
		testWaveSynced = func(e *WaveEngine, _ int, lo, _ int32) {
			gotMoves = append(gotMoves, slices.Clone(e.TaskMoves(lo)))
		}
		gotRes := sweepSerial(g, partition.BuildIndex(g, p), cs, orig, cfg)
		testWaveSynced = nil
		if len(gotMoves) != len(wantMoves) {
			t.Fatalf("%s: %d pairs refined, the reference refined %d", name, len(gotMoves), len(wantMoves))
		}
		for i := range wantMoves {
			if !slices.Equal(gotMoves[i], wantMoves[i]) {
				t.Fatalf("%s: pair %d kept %v, the reference kept %v", name, i, gotMoves[i], wantMoves[i])
			}
		}
		if gotRes != wantRes || !slices.Equal(p.Assign, pRef.Assign) {
			t.Fatalf("%s: result %+v, the reference's %+v (assignments equal: %v)", name, gotRes, wantRes, slices.Equal(p.Assign, pRef.Assign))
		}
		return gotRes.Moves
	}
	moves := 0
	inputs := serialGoldenInputs()
	for _, in := range inputs {
		for _, k := range []int32{2, 7, 16} {
			p0 := in.part(k)
			for _, mc := range serialGoldenMatrices(k) {
				moves += run(t, fmt.Sprintf("%s/%s/k=%d", in.name, mc.name, k), in.g, p0, slices.Clone(p0.Assign), mc.c)
			}
		}
	}
	in := inputs[0]
	p, orig := driftedInput(in.g, in.part(7))
	moves += run(t, in.name+"/pitt/k=7/drifted", in.g, p, orig, serialGoldenMatrices(7)[1].c)
	if moves == 0 {
		t.Fatal("no pair kept a move: the comparison is vacuous")
	}
}
