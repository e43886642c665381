package aragon

import (
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

// seededGain seeds v as the only candidate of the pair (pi, pj), the way
// RefinePair seeds every candidate, and returns its gain.
func seededGain(r *Refiner, v, pi, pj int32, orig []int32, c [][]float64) float64 {
	r.beginPair(pi, pj, c)
	r.cands = append(r.cands[:0], v)
	r.grow(1)
	r.seed(0, pi, pj, orig, c)
	return r.gains[0]
}

// checkSeededGains compares the refiner's seeded gain with the dense
// Eq. 5 evaluation for every vertex against every target partition, in
// both orientations of the pair, once seeding from adjacency scans and
// once from a neighbor profile. Bitwise equality matters: the FM heap
// breaks ties by insertion order, so any FP drift changes move sequences.
func checkSeededGains(t *testing.T, g *graph.Graph, p *partition.Partitioning, orig []int32, c [][]float64, uniform bool) {
	t.Helper()
	cfg := Config{}.WithDefaults()
	r := NewRefiner(g, partition.BuildIndex(g, p), cfg)
	np, err := partition.BuildNeighborProfile(g, p.Assign, p.K, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, profile := range []*partition.NeighborProfile{nil, np} {
		r.SetProfile(profile)
		for v := int32(0); v < g.NumVertices(); v++ {
			from := p.Assign[v]
			dense := partition.ExternalDegrees(g, p, v)
			for to := int32(0); to < p.K; to++ {
				if to == from {
					continue
				}
				want := gainFromDegrees(g, dense, orig, v, from, to, c, cfg.Alpha)
				for _, pair := range [][2]int32{{from, to}, {to, from}} {
					got := seededGain(r, v, pair[0], pair[1], orig, c)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("profile=%v pair %v: gain(v=%d, %d->%d) = %v, want %v (not bit-identical)", profile != nil, pair, v, from, to, got, want)
					}
				}
			}
		}
	}
	if r.cUniform != uniform {
		t.Fatalf("cost matrix detected as uniform = %v, want %v", r.cUniform, uniform)
	}
}

// mixedCostMatrix is a symmetric non-uniform cost matrix whose entries
// are not dyadic, so g_topo sums many unequal terms and any change of
// summation order shows in the low bits.
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
// a non-uniform matrix (ascending touched-partition order) is
// bit-identical to the dense Eq. 5 evaluation.
func TestSparseGainMatchesDense(t *testing.T) {
	g := gen.RMAT(800, 4000, 0.57, 0.19, 0.19, 31)
	g.UseDegreeWeights()
	const k = 11
	p, orig := perturbed(g, k, 200, rand.New(rand.NewSource(23)))
	checkSeededGains(t, g, p, orig, mixedCostMatrix(k), false)
}

// switchWalk is the general-matrix profile walk as it was before the
// difference rows: a three-way branch per entry that skips `from` and
// `to`. Kept as the reference the branch-free walk of seed is pinned to.
func switchWalk(parts []int32, ws []int64, from, to int32, c [][]float64, alpha float64) (gtopo float64, dfrom, dto int64) {
	cf, ct := c[from], c[to]
	for i, k := range parts {
		switch k {
		case from:
			dfrom = ws[i]
		case to:
			dto = ws[i]
		default:
			gtopo += float64(float64(ws[i]) * (cf[k] - ct[k]))
		}
	}
	return gtopo * alpha, dfrom, dto
}

// TestBranchFreeWalkMatchesSwitchWalk seeds the hub of random stars — so
// the hub's profile segment is whatever (partition, weight) list the trial
// drew — under matrices built to stress the +0.0 identity the branch-free
// walk rests on: asymmetric rows with differences of either sign, rows
// that agree outside {from, to} (every product, and the sum, exactly
// zero), and segments that hold nothing but `from` and `to`. Both
// orientations of each pair; g_topo must match the reference to the bit
// (sign of zero included) and the two pair-local degrees exactly.
func TestBranchFreeWalkMatchesSwitchWalk(t *testing.T) {
	const k = 9
	rng := rand.New(rand.NewSource(53))
	cfg := Config{}.WithDefaults()
	zeroSums, pairOnly, negative := 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		from, to := rng.Int31n(k), rng.Int31n(k-1)
		if to >= from {
			to++
		}
		c := make([][]float64, k)
		for i := range c {
			c[i] = make([]float64, k)
			for j := range c[i] {
				if i != j {
					c[i][j] = float64(rng.Intn(40))/7 + 0.1 // c[i][j] != c[j][i] in general
				}
			}
		}
		if trial%4 == 1 {
			for q := int32(0); q < k; q++ {
				if q != from && q != to {
					c[to][q] = c[from][q]
				}
			}
		}
		leaves := 1 + rng.Int31n(14)
		b := graph.NewBuilder(1 + leaves)
		p := partition.New(k, 1+leaves)
		p.Assign[0] = from
		for u := int32(1); u <= leaves; u++ {
			b.AddWeightedEdge(0, u, 1+rng.Int31n(1000))
			p.Assign[u] = rng.Int31n(k)
			if trial%4 == 2 {
				p.Assign[u] = []int32{from, to}[rng.Intn(2)]
			}
		}
		g := b.Build()
		np, err := partition.BuildNeighborProfile(g, p.Assign, k, 1)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRefiner(g, partition.BuildIndex(g, p), cfg)
		r.SetProfile(np)
		parts, ws, _ := np.Segment(0)
		wantTopo, wantFrom, wantTo := switchWalk(parts, ws, from, to, c, cfg.Alpha)
		for _, pair := range [][2]int32{{from, to}, {to, from}} {
			seededGain(r, 0, pair[0], pair[1], p.Assign, c)
			if r.cUniform {
				t.Fatalf("trial %d: matrix detected as uniform; the general walk did not run", trial)
			}
			if math.Float64bits(r.gtopo[0]) != math.Float64bits(wantTopo) || r.dfrom[0] != wantFrom || r.dto[0] != wantTo {
				t.Fatalf("trial %d pair %v, segment %v/%v moving %d->%d: walk gives gtopo %v (%#x) dfrom %d dto %d, reference %v (%#x) %d %d",
					trial, pair, parts, ws, from, to, r.gtopo[0], math.Float64bits(r.gtopo[0]), r.dfrom[0], r.dto[0], wantTopo, math.Float64bits(wantTopo), wantFrom, wantTo)
			}
		}
		switch {
		case trial%4 == 2:
			pairOnly++
		case trial%4 == 1 && len(parts) > 2:
			zeroSums++
		case wantTopo < 0:
			negative++
		}
	}
	if zeroSums < 50 || pairOnly < 50 || negative < 50 {
		t.Fatalf("%d zero-sum, %d pair-only, %d negative-sum trials: a case the identity rests on is near-absent", zeroSums, pairOnly, negative)
	}
}

// TestUniformGainMatchesDense pins the uniform-cost seeding (g_topo the
// literal +0.0) to the dense Eq. 5 evaluation, bitwise.
func TestUniformGainMatchesDense(t *testing.T) {
	g := gen.BarabasiAlbert(700, 4, 29)
	g.UseDegreeWeights()
	const k = 8
	p, orig := perturbed(g, k, 150, rand.New(rand.NewSource(37)))
	checkSeededGains(t, g, p, orig, topology.UniformMatrix(k), true)
}

// TestDeltaGainMatchesOracle is the differential test of the delta-mode
// kernel: RefinePair is driven over many pairs under a non-uniform
// matrix with k = 130 (three touched-partition mask words), and after
// every applied move the maintained gain of every unmoved candidate must
// equal, bit for bit, the dense Eq. 5 evaluation on the view the read
// rule prescribes. Two modes: a serial Index without a profile (every
// neighbor read live), and the scheduler's arrangement — a Shadow plus a
// wave-start profile, pairs of one wave run back to back without a sync
// in between, so later pairs see earlier pairs' moves in the live view
// and must not read them (foreign neighbors count at their wave-start
// owner, which the master still holds). The profile and the master index
// absorb the kept moves at each wave barrier, as the scheduler does.
func TestDeltaGainMatchesOracle(t *testing.T) {
	const k = 130
	c := mixedCostMatrix(k)
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
					want := gainFromDegrees(g, dense, orig, v, from, to, c, cfg.Alpha)
					if got := r.gains[idx]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("seed %d pair (%d,%d): maintained gain of %d = %v, oracle %v", seed, pi, pj, v, got, want)
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
					kept, _ = r.RefinePairScheduled(kept, orig, pi, pj, c, loads, math.MaxInt64, all)
				}
				// Wave barrier.
				for _, mv := range kept {
					w := g.EdgeWeights(mv.V)
					for i, u := range g.Neighbors(mv.V) {
						profile.MoveNeighbor(u, p.Assign[mv.V], mv.To, int64(w[i]))
					}
					ix.Move(mv.V, mv.To)
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
	end := unsafe.Offsetof(r.cUniform) + unsafe.Sizeof(r.cUniform)
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
