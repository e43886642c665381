package aragon

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"paragon/internal/gen"
	"paragon/internal/graph"
	"paragon/internal/partition"
	"paragon/internal/topology"
)

// seededGains seeds every vertex of pi and pj, ascending, as the
// candidates of the pair (pi, pj) through the passes RefinePair runs, and
// returns them with their gains.
func seededGains(r *Refiner, pi, pj int32, orig []int32, cs *partition.Costs) ([]int32, []int64) {
	r.beginPair(pi, pj, cs)
	r.cands = r.cands[:0]
	for v, q := range r.master.Assign {
		if q == pi || q == pj {
			r.cands = append(r.cands, int32(v))
		}
	}
	r.grow(len(r.cands))
	r.seed(pi, pj, orig, cs)
	return r.cands, r.gains
}

// quantised is c on the objective grid.
func quantised(t testing.TB, c [][]float64) *partition.Costs {
	t.Helper()
	cs, err := partition.CheckCosts(c, int32(len(c)))
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// checkSeededGains compares the refiner's seeded gain with the dense
// Eq. 5 evaluation for every vertex against every target partition, in
// both orientations of the pair, once seeding from adjacency scans and
// once from a neighbor profile — the branch-free walk over the pair's
// difference rows included. It returns the entry count of the longest
// profile segment.
func checkSeededGains(t *testing.T, g *graph.Graph, p *partition.Partitioning, orig []int32, c [][]float64, uniform bool) (longest int) {
	t.Helper()
	cfg := Config{}.WithDefaults()
	cs := quantised(t, c)
	if cs.Uniform != uniform {
		t.Fatalf("cost matrix detected as uniform = %v, want %v", cs.Uniform, uniform)
	}
	r := NewRefiner(g, partition.BuildIndex(g, p), cfg)
	np, err := partition.BuildNeighborProfile(g, p.Assign, p.K, 1)
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < g.NumVertices(); v++ {
		parts, _, _ := np.Segment(v)
		longest = max(longest, len(parts))
	}
	for _, profile := range []*partition.NeighborProfile{nil, np} {
		r.SetProfile(profile)
		for pi := int32(0); pi < p.K; pi++ {
			for pj := int32(0); pj < p.K; pj++ {
				if pi == pj {
					continue
				}
				cands, gains := seededGains(r, pi, pj, orig, cs)
				for idx, v := range cands {
					from, to := p.Assign[v], pi
					if from == pi {
						to = pj
					}
					want := gainFromDegrees(g, partition.ExternalDegrees(g, p, v), orig, v, from, to, cs, r.alpha)
					if gains[idx] != want {
						t.Fatalf("profile=%v pair (%d,%d): gain(v=%d, %d->%d) = %d, want %d", profile != nil, pi, pj, v, from, to, gains[idx], want)
					}
				}
			}
		}
	}
	return longest
}

// mixedCostMatrix is a symmetric non-uniform cost matrix whose entries
// are not dyadic, so g_topo sums many unequal terms and the grid rounds
// them.
func mixedCostMatrix(k int) [][]float64 {
	c := make([][]float64, k)
	for i := range c {
		c[i] = make([]float64, k)
		for j := range c[i] {
			if i != j {
				c[i][j] = 1 + float64((i+j)%5) + float64((i*j)%7)/3
			}
		}
	}
	return c
}

// perturbed returns a random k-way partitioning of g and the original
// decomposition it drifted from, so orig differs and g_mig is exercised.
func perturbed(g *graph.Graph, k int32, moves int, rng *rand.Rand) (*partition.Partitioning, []int32) {
	p := partition.New(k, g.NumVertices())
	for v := range p.Assign {
		p.Assign[v] = rng.Int31n(k)
	}
	orig := append([]int32(nil), p.Assign...)
	for i := 0; i < moves; i++ {
		p.Assign[rng.Int31n(g.NumVertices())] = rng.Int31n(k)
	}
	return p, orig
}

// TestSparseGainMatchesDense checks that the refiner's seeded gain under
// a non-uniform matrix equals the dense Eq. 5 evaluation.
func TestSparseGainMatchesDense(t *testing.T) {
	g := gen.RMAT(800, 4000, 0.57, 0.19, 0.19, 31)
	g.UseDegreeWeights()
	const k = 11
	p, orig := perturbed(g, k, 200, rand.New(rand.NewSource(23)))
	checkSeededGains(t, g, p, orig, mixedCostMatrix(k), false)
}

// TestUniformGainMatchesDense pins the uniform-cost seeding (g_topo
// identically 0) to the dense Eq. 5 evaluation. At k = 40 the hubs'
// segments hold more than 32 entries, the length from which profile reads
// used to switch to binary search.
func TestUniformGainMatchesDense(t *testing.T) {
	g := gen.BarabasiAlbert(700, 4, 29)
	g.UseDegreeWeights()
	for _, k := range []int32{8, 40} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			p, orig := perturbed(g, k, 150, rand.New(rand.NewSource(37)))
			longest := checkSeededGains(t, g, p, orig, topology.UniformMatrix(int(k)), true)
			if k == 40 && longest <= 32 {
				t.Fatalf("longest segment has %d entries; no segment past 32 was seeded", longest)
			}
		})
	}
}

// TestDeltaGainMatchesOracle is the differential test of the delta-mode
// kernel: RefinePair is driven over many pairs under a non-uniform
// matrix with k = 130, and after
// every applied move the maintained gain of every unmoved candidate must
// equal the dense Eq. 5 evaluation on the view the read rule prescribes.
// Two modes: a serial Index without a profile (every neighbor read
// live), and the scheduler's arrangement — a Shadow plus a
// wave-start profile, pairs of one wave run back to back without a sync
// in between, so later pairs see earlier pairs' moves in the live view
// and must not read them (foreign neighbors count at their wave-start
// owner, which the master still holds). The profile and the master index
// absorb the kept moves at each wave barrier, as the scheduler does.
func TestDeltaGainMatchesOracle(t *testing.T) {
	const k = 130
	c := mixedCostMatrix(k)
	cs := quantised(t, c)
	cfg := Config{}.WithDefaults()
	defer func() { testMoveApplied = nil }()
	for _, seed := range []int64{3, 17} {
		g := gen.RMAT(2600, 16000, 0.57, 0.19, 0.19, seed)
		g.UseDegreeWeights()
		n := g.NumVertices()
		p0, orig := perturbed(g, k, 500, rand.New(rand.NewSource(seed+1)))

		// oracle compares every unmoved candidate of the running pair
		// against gainFromDegrees over owner(u), the prescribed view.
		checks := 0
		dense := make([]int64, k)
		oracle := func(t *testing.T, owner func(u, pi, pj int32) int32) func(r *Refiner, pi, pj int32) {
			return func(r *Refiner, pi, pj int32) {
				for idx, v := range r.cands {
					if r.moved[idx] {
						continue
					}
					from := r.p.Assign[v]
					to := pi
					if from == pi {
						to = pj
					}
					clear(dense)
					w := g.EdgeWeights(v)
					for i, u := range g.Neighbors(v) {
						dense[owner(u, pi, pj)] += int64(w[i])
					}
					want := gainFromDegrees(g, dense, orig, v, from, to, cs, r.alpha)
					if got := r.gains[idx]; got != want {
						t.Fatalf("seed %d pair (%d,%d): maintained gain of %d = %d, oracle %d", seed, pi, pj, v, got, want)
					}
					checks++
				}
			}
		}
		t.Run("index", func(t *testing.T) {
			p := p0.Clone()
			ix := partition.BuildIndex(g, p)
			r := NewRefiner(g, ix, cfg)
			loads := p.Weights(g)
			testMoveApplied = oracle(t, func(u, _, _ int32) int32 { return p.Assign[u] })
			checks = 0
			moves := 0
			for pi := int32(0); pi < k; pi++ {
				for _, d := range []int32{1, 7, 64} {
					moves += r.RefinePair(orig, pi, (pi+d)%k, c, loads, math.MaxInt64, nil).Moves
				}
			}
			if err := ix.Validate(); err != nil {
				t.Fatal(err)
			}
			if moves < 100 || checks < 1000 {
				t.Fatalf("%d kept moves, %d oracle comparisons: the differential is near-vacuous", moves, checks)
			}
		})

		t.Run("shadow-profile", func(t *testing.T) {
			p := p0.Clone()
			ix := partition.BuildIndex(g, p)
			shadow := ix.NewShadow()
			cur := shadow.Partitioning()
			profile, err := partition.BuildNeighborProfile(g, p.Assign, k, 1)
			if err != nil {
				t.Fatal(err)
			}
			r := NewRefiner(g, shadow, cfg)
			r.SetProfile(profile)
			all := partition.NewBitset(n)
			for v := int32(0); v < n; v++ {
				all.Set(v)
			}
			shadow.Sync(all, all.AppendSet(nil))
			loads := p.Weights(g)
			testMoveApplied = oracle(t, func(u, pi, pj int32) int32 {
				if a := p.Assign[u]; a != pi && a != pj {
					return a
				}
				return cur.Assign[u]
			})
			checks = 0
			var kept []Move
			for wave := int32(0); wave < 6; wave++ {
				kept = kept[:0]
				for i := int32(0); i < k/2; i++ {
					pi, pj := (2*i+wave)%k, (2*i+1+wave)%k
					kept, _ = r.RefinePairScheduled(kept, orig, pi, pj, cs, loads, math.MaxInt64, all)
				}
				// Wave barrier.
				for _, mv := range kept {
					w := g.EdgeWeights(mv.V)
					for i, u := range g.Neighbors(mv.V) {
						profile.MoveNeighbor(u, p.Assign[mv.V], mv.To, int64(w[i]))
					}
					shadow.Commit(mv.V, mv.To)
				}
				if !slices.Equal(p.Assign, cur.Assign) {
					t.Fatalf("wave %d: master and live view disagree after the barrier", wave)
				}
			}
			if checks < 1000 {
				t.Fatalf("%d oracle comparisons: the differential is near-vacuous", checks)
			}
		})
	}
}

// TestRefinerSharedAcrossPairs checks that one refiner driven across a full
// pair sweep leaves the index consistent and produces a valid partitioning.
func TestRefinerSharedAcrossPairs(t *testing.T) {
	g := gen.BarabasiAlbert(600, 3, 41)
	g.UseDegreeWeights()
	rng := rand.New(rand.NewSource(43))
	const k = 6
	p := partition.New(k, g.NumVertices())
	for v := range p.Assign {
		p.Assign[v] = rng.Int31n(k)
	}
	orig := append([]int32(nil), p.Assign...)
	c := topology.UniformMatrix(k)
	cfg := Config{}.WithDefaults()
	loads := p.Weights(g)
	maxLoad := partition.BalanceBound(g, k, cfg.MaxImbalance)
	ix := partition.BuildIndex(g, p)
	r := NewRefiner(g, ix, cfg)
	var moves int
	for i := int32(0); i < k; i++ {
		for j := i + 1; j < k; j++ {
			res := r.RefinePair(orig, i, j, c, loads, maxLoad, nil)
			moves += res.Moves
		}
	}
	if moves == 0 {
		t.Fatal("random partitioning refined with zero moves")
	}
	if err := ix.Validate(); err != nil {
		t.Fatalf("index inconsistent after sweep: %v", err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	// loads must have been maintained move-by-move (rollback included).
	want := p.Weights(g)
	for q := range want {
		if loads[q] != want[q] {
			t.Fatalf("loads[%d] = %d, want %d", q, loads[q], want[q])
		}
	}
}

// TestRefinerKeepsWorkersOffSharedLines pins the false-sharing guard. The
// scheduler builds its per-worker refiners back to back, so whatever the
// allocator places next to a refiner's struct or small scratch belongs to
// another worker: every field must sit a full pad inside the struct, and
// the scratch must end on a line boundary however few words it needs.
func TestRefinerKeepsWorkersOffSharedLines(t *testing.T) {
	var r Refiner
	if off := unsafe.Offsetof(r.g); off < cacheLinePad {
		t.Errorf("first field at offset %d, want a leading pad of %d bytes", off, cacheLinePad)
	}
	end := unsafe.Offsetof(r.costs) + unsafe.Sizeof(r.costs)
	if tail := unsafe.Sizeof(r) - end; tail < cacheLinePad {
		t.Errorf("%d bytes after the last field, want a trailing pad of %d", tail, cacheLinePad)
	}
	for _, n := range []int{0, 1, 2, 7, 8, 9, 130} {
		s := scratchWords[uint64](n)
		if len(s) != n || cap(s)%8 != 0 || cap(s) < n || cap(s) >= n+8 {
			t.Errorf("scratchWords(%d): len %d cap %d, want len %d and the next multiple of 8 words as cap", n, len(s), cap(s), n)
		}
		if n > 0 && uintptr(unsafe.Pointer(&s[0]))%64 != 0 {
			t.Errorf("scratchWords(%d) starts at %p, not on a cache line", n, &s[0])
		}
	}
}
