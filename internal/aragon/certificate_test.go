package aragon

import (
	"math/rand"
	"slices"
	"testing"

	"paragon/internal/gen"
	"paragon/internal/partition"
	"paragon/internal/topology"
)

// The certificate (ROADMAP item 2): before its first move, RefinePair pops
// the best load-admissible candidate, so a call that keeps no move proves
// that no candidate of the pair had a positive gain it could take within
// the balance bound. Every zero-move call of repeated pair sweeps is held
// to that, each candidate's gain recomputed with gainFromDegrees over
// partition.ExternalDegrees, under the uniform and a non-dyadic matrix,
// with orig ≠ Assign. Eight sweeps bring even k = 2 to calls that keep
// nothing; each (k, matrix) run must check at least one.
func TestZeroMoveCertificate(t *testing.T) {
	g := gen.RMAT(800, 4000, 0.57, 0.19, 0.19, 31)
	g.UseDegreeWeights()
	cfg := Config{}.WithDefaults()
	for _, k := range []int32{2, 7, 11} {
		maxLoad := partition.BalanceBound(g, k, cfg.MaxImbalance)
		for _, mc := range []struct {
			name string
			c    [][]float64
		}{{"uniform", topology.UniformMatrix(int(k))}, {"mixed", mixedCostMatrix(int(k))}} {
			cs := quantised(t, mc.c)
			p, orig := perturbed(g, k, 200, rand.New(rand.NewSource(int64(k))))
			ix := partition.BuildIndex(g, p)
			r := NewRefiner(g, ix, cfg)
			loads := p.Weights(g)
			var cands []int32
			calls, admissible := 0, 0
			for sweep := 0; sweep < 8; sweep++ {
				for pi := int32(0); pi < k; pi++ {
					for pj := pi + 1; pj < k; pj++ {
						cands = ix.AppendPairCandidates(cands[:0], pi, pj, nil)
						start := slices.Clone(loads)
						if r.RefinePair(orig, pi, pj, mc.c, loads, maxLoad, nil).Moves > 0 {
							continue
						}
						// No move kept, so p and loads are as the call found them.
						calls++
						for _, v := range cands {
							from, to := p.Assign[v], pi
							if from == pi {
								to = pj
							}
							if start[to]+int64(g.VertexWeight(v)) > maxLoad {
								continue
							}
							admissible++
							gain := gainFromDegrees(g, partition.ExternalDegrees(g, p, v), orig, v, from, to, cs, r.alpha)
							if gain > 0 {
								t.Fatalf("k %d %s sweep %d pair (%d,%d): no move kept, but %d -> %d gains %d within the balance bound", k, mc.name, sweep, pi, pj, v, to, gain)
							}
						}
					}
				}
			}
			if calls == 0 {
				t.Fatalf("k %d %s: no call kept 0 moves; the certificate was never checked", k, mc.name)
			}
			t.Logf("k %d %s: %d zero-move calls, %d admissible candidates", k, mc.name, calls, admissible)
		}
	}
}
