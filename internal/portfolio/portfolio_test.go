package portfolio

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"paragon/internal/aragon"
	"paragon/internal/faultsim"
	"paragon/internal/gen"
	"paragon/internal/graph"
	"paragon/internal/obs"
	"paragon/internal/paragon"
	"paragon/internal/partition"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

func assignHash(p *partition.Partitioning) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, a := range p.Assign {
		buf[0] = byte(a)
		buf[1] = byte(a >> 8)
		buf[2] = byte(a >> 16)
		buf[3] = byte(a >> 24)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// testInput builds the shared fixture: an RMAT graph with degree
// weights, a streaming initial decomposition, and a non-uniform
// architecture cost matrix.
func testInput(t *testing.T, n int32, m int64, k int32) (*graph.Graph, *partition.Partitioning, [][]float64) {
	t.Helper()
	g := gen.RMAT(n, m, 0.57, 0.19, 0.19, 5)
	g.UseDegreeWeights()
	cl := topology.PittCluster(2)
	c, err := cl.PartitionCostMatrix(int(k), 0)
	if err != nil {
		t.Fatal(err)
	}
	p := stream.DG(g, k, stream.DefaultOptions())
	return g, p, c
}

// zeroTimes strips the stopwatch fields — the only Stats content allowed
// to vary across worker counts.
func zeroTimes(st Stats) Stats {
	st.WallTime = 0
	st.CPUTime = 0
	for i := range st.Members {
		st.Members[i].CPUTime = 0
	}
	return st
}

func statsEqual(a, b Stats) bool {
	if a.Size != b.Size || a.Forfeits != b.Forfeits ||
		a.Winner != b.Winner || a.RunnerUp != b.RunnerUp ||
		a.CombineDiff != b.CombineDiff || a.CombineMoves != b.CombineMoves ||
		a.CombinePairs != b.CombinePairs || a.CombineWaves != b.CombineWaves ||
		a.CombineGain != b.CombineGain || a.CombinedScore != b.CombinedScore ||
		a.CombineApplied != b.CombineApplied ||
		a.InputScore != b.InputScore || a.SelectedScore != b.SelectedScore ||
		len(a.Members) != len(b.Members) {
		return false
	}
	for i := range a.Members {
		if a.Members[i] != b.Members[i] {
			return false
		}
	}
	return true
}

// TestPortfolioDeterminism is the package's core contract: the selected
// assignment hash and every non-stopwatch Stats field are byte-identical
// at Workers 1, 2, and 8 — with and without fault injection — and the
// trace and metrics serializations match byte for byte too.
func TestPortfolioDeterminism(t *testing.T) {
	g, p0, c := testInput(t, 4000, 24000, 32)
	for _, tc := range []struct {
		name   string
		faulty bool
		c      [][]float64
		khop   int
	}{
		{name: "clean", c: c},
		{name: "faulty", faulty: true, c: c},
		// The combine's other seeding (two degrees off the master, no
		// g_topo) and the mask path of members and combine.
		{name: "uniform", c: topology.UniformMatrix(32)},
		{name: "khop1", c: c, khop: 1},
	} {
		faulty, c := tc.faulty, tc.c
		t.Run(tc.name, func(t *testing.T) {
			var wantHash uint64
			var wantStats Stats
			var wantTrace, wantProm string
			for i, workers := range []int{1, 2, 8} {
				p := p0.Clone()
				cfg := paragon.Config{
					DRP: 4, Shuffles: 2, Seed: 7, Workers: workers, KHop: tc.khop,
					Portfolio: paragon.PortfolioConfig{Size: 5, CombineTop: 2},
					Trace:     obs.NewTracer(0),
					Metrics:   obs.NewRegistry(),
				}
				if faulty {
					cfg.FaultRate = 0.3
					cfg.FaultSeed = 3
				}
				st, err := Refine(g, p, c, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Validate(g); err != nil {
					t.Fatal(err)
				}
				tr := serializeTrace(t, cfg.Trace)
				pm := serializeProm(t, cfg.Metrics)
				h := assignHash(p)
				if i == 0 {
					wantHash, wantStats, wantTrace, wantProm = h, st, tr, pm
					if faulty {
						if st.Forfeits == 0 {
							t.Fatalf("fault rate 0.3 over %d members fired no forfeit — fixture too weak", st.Size)
						}
						if st.Winner < 0 {
							t.Fatalf("all members forfeited — fixture too strong")
						}
					}
					if st.CombineMoves == 0 || st.CombineWaves < 2 {
						t.Fatalf("the combine kept %d moves over %d waves — fixture too weak", st.CombineMoves, st.CombineWaves)
					}
					continue
				}
				if h != wantHash {
					t.Errorf("workers=%d: selected hash %#x, want %#x (workers=1)", workers, h, wantHash)
				}
				if !statsEqual(zeroTimes(st), zeroTimes(wantStats)) {
					t.Errorf("workers=%d: stats diverged:\n got %+v\nwant %+v", workers, zeroTimes(st), zeroTimes(wantStats))
				}
				if tr != wantTrace {
					t.Errorf("workers=%d: trace serialization diverged", workers)
				}
				if pm != wantProm {
					t.Errorf("workers=%d: metrics serialization diverged", workers)
				}
			}
		})
	}
}

func serializeTrace(t *testing.T, tr *obs.Tracer) string {
	t.Helper()
	var sb stringsBuilder
	if err := obs.WriteJSONL(&sb, tr); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func serializeProm(t *testing.T, r *obs.Registry) string {
	t.Helper()
	var sb stringsBuilder
	if err := obs.WriteProm(&sb, r); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// stringsBuilder avoids importing strings just for Builder.
type stringsBuilder struct{ buf []byte }

func (sb *stringsBuilder) Write(p []byte) (int, error) {
	sb.buf = append(sb.buf, p...)
	return len(p), nil
}
func (sb *stringsBuilder) String() string { return string(sb.buf) }

// TestPortfolioCrashedMemberExclusion pins the forfeit semantics:
// members are independent, so crashing one member (via a scripted fate
// at round -1) must leave every survivor's score bit-identical to the
// clean run, exclude the victim from selection, and re-crown the best
// survivor — never silently substitute anything.
func TestPortfolioCrashedMemberExclusion(t *testing.T) {
	g, p0, c := testInput(t, 3000, 18000, 24)
	cfg := paragon.Config{
		DRP: 4, Shuffles: 1, Seed: 13,
		Portfolio: paragon.PortfolioConfig{Size: 4, CombineTop: 0},
	}
	p := p0.Clone()
	clean, err := Refine(g, p, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Winner < 0 {
		t.Fatal("clean run selected no winner")
	}

	// Crash exactly the clean winner.
	cfgCrash := cfg
	cfgCrash.Fabric = faultsim.NewInjector(faultsim.Config{Script: []faultsim.Event{
		{Kind: faultsim.KindCrash, Round: -1, Index: clean.Winner},
	}})
	p = p0.Clone()
	crashed, err := Refine(g, p, c, cfgCrash)
	if err != nil {
		t.Fatal(err)
	}
	if crashed.Forfeits != 1 || !crashed.Members[clean.Winner].Forfeited {
		t.Fatalf("member %d should have forfeited: %+v", clean.Winner, crashed)
	}
	if crashed.Winner == clean.Winner {
		t.Fatalf("crashed member %d still selected", clean.Winner)
	}
	if (crashed.Members[clean.Winner].Score != partition.Score{}) {
		t.Fatalf("forfeited member carries a score: %+v", crashed.Members[clean.Winner].Score)
	}
	// Survivors are untouched by the crash, and the new winner is the
	// best of them under the same total order.
	best := -1
	for m, ms := range clean.Members {
		if m == clean.Winner {
			continue
		}
		if crashed.Members[m].Score != ms.Score || crashed.Members[m].Moves != ms.Moves {
			t.Fatalf("member %d diverged under another member's crash: %+v vs %+v", m, crashed.Members[m], ms)
		}
		if best < 0 || ms.Score.Better(clean.Members[best].Score) {
			best = m
		}
	}
	if crashed.Winner != best {
		t.Fatalf("winner after crash = %d, want best survivor %d", crashed.Winner, best)
	}
	if p.Validate(g) != nil || assignHash(p) == 0 {
		t.Fatal("crashed-run output invalid")
	}

	// All-forfeit: the input decomposition survives untouched.
	script := make([]faultsim.Event, 0, 4)
	for m := 0; m < 4; m++ {
		script = append(script, faultsim.Event{Kind: faultsim.KindCrash, Round: -1, Index: m})
	}
	cfgAll := cfg
	cfgAll.Fabric = faultsim.NewInjector(faultsim.Config{Script: script})
	p = p0.Clone()
	all, err := Refine(g, p, c, cfgAll)
	if err != nil {
		t.Fatal(err)
	}
	if all.Winner != -1 || all.Forfeits != 4 {
		t.Fatalf("all-forfeit run: %+v", all)
	}
	if assignHash(p) != assignHash(p0) {
		t.Fatal("all-forfeit run mutated the input decomposition")
	}
	if all.SelectedScore != all.InputScore {
		t.Fatalf("all-forfeit selected score %+v, want input score %+v", all.SelectedScore, all.InputScore)
	}
}

// TestPortfolioCombineNeverWorse is the combine operator's property
// test, across seeds: the output decomposition is valid, respects the
// balance bound the members refined under, and is never worse than the
// best single member under the partition.Score total order — whether or
// not the overlay was applied.
func TestPortfolioCombineNeverWorse(t *testing.T) {
	g, p0, c := testInput(t, 3000, 18000, 24)
	for seed := int64(0); seed < 6; seed++ {
		p := p0.Clone()
		cfg := paragon.Config{
			DRP: 4, Shuffles: 1, Seed: seed,
			Portfolio: paragon.PortfolioConfig{Size: 4, CombineTop: 2},
		}
		st, err := Refine(g, p, c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		best := st.Members[st.Winner].Score
		if best.Better(st.SelectedScore) {
			t.Fatalf("seed %d: selected %+v is worse than best member %+v", seed, st.SelectedScore, best)
		}
		if st.CombineDiff > 0 && best.Better(st.CombinedScore) {
			t.Fatalf("seed %d: combined %+v is worse than best member %+v", seed, st.CombinedScore, best)
		}
		// The selected score must describe the decomposition actually
		// left in p.
		got := partition.ComputeScore(g, p, p0.Assign, c, 10)
		if got != st.SelectedScore {
			t.Fatalf("seed %d: SelectedScore %+v does not match p's recomputed score %+v", seed, st.SelectedScore, got)
		}
		// Balance: no partition exceeds the bound the members refined
		// under, unless the input itself already violated it there.
		bound := partition.BalanceBound(g, p.K, 0.02)
		w := p.Weights(g)
		w0 := p0.Weights(g)
		for q, wq := range w {
			if wq > bound && wq > w0[q] {
				t.Fatalf("seed %d: partition %d weight %d exceeds bound %d (input was %d)", seed, q, wq, bound, w0[q])
			}
		}
	}
}

// TestPortfolioPoolAllocsFlat asserts the pooled-scratch contract:
// growing the member count on a warmed pool costs ~no additional
// allocations per run (the per-member scratch is reused via the
// member-id-keyed free list, and per-member results live in pooled
// buffers).
func TestPortfolioPoolAllocsFlat(t *testing.T) {
	g, p0, c := testInput(t, 2000, 10000, 16)
	for _, khop := range []int{0, 1} {
		measure := func(size int, pool *Pool) float64 {
			cfg := paragon.Config{
				DRP: 4, Shuffles: 1, Seed: 3, Workers: 2, KHop: khop,
				Portfolio: paragon.PortfolioConfig{Size: size, CombineTop: 2},
			}
			p := p0.Clone()
			// Warm the pool (first run sizes every buffer).
			st, err := RefineWithPool(g, p, c, cfg, pool)
			if err != nil {
				t.Fatal(err)
			}
			if st.CombinePairs == 0 {
				t.Fatalf("khop=%d size=%d: the combine refined no pair; its engine is not covered", khop, size)
			}
			return testing.AllocsPerRun(3, func() {
				pp := p0.Clone()
				if _, err := RefineWithPool(g, pp, c, cfg, pool); err != nil {
					t.Fatal(err)
				}
			})
		}
		var pool Pool
		small := measure(2, &pool)
		large := measure(8, &pool)
		// The fixed overhead (Stats.Members, runner, waitgroup, the combine's
		// worker goroutines and channels, clone in the closure) is allowed;
		// what must NOT happen is per-member index or refiner construction,
		// a fresh combine engine (thousands of allocs each) or, at k-hop 1, a
		// mask expansion that allocates per round. Six extra members get a
		// generous budget of 8 allocs each.
		if large > small+48 || small > 64 {
			t.Fatalf("khop=%d: allocs/op size=2 → %.0f, size=8 → %.0f", khop, small, large)
		}
		t.Logf("khop=%d allocs/op: size=2 %.0f, size=8 %.0f", khop, small, large)
	}
}

// TestPortfolioSelectedBeatsInput sanity-checks that the ensemble is
// doing its job on a refinable input: the selected cost improves on the
// input decomposition's cost.
func TestPortfolioSelectedBeatsInput(t *testing.T) {
	g, p0, c := testInput(t, 3000, 18000, 24)
	p := p0.Clone()
	st, err := Refine(g, p, c, paragon.Config{
		DRP: 4, Shuffles: 1, Seed: 1,
		Portfolio: paragon.PortfolioConfig{Size: 4, CombineTop: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.SelectedScore.Cost() >= st.InputScore.CommCost {
		t.Fatalf("selected cost %v did not improve on input comm cost %v",
			st.SelectedScore.Cost(), st.InputScore.CommCost)
	}
	if st.CPUTime <= 0 || st.WallTime <= 0 {
		t.Fatalf("stopwatches not populated: cpu=%v wall=%v", st.CPUTime, st.WallTime)
	}
	var sum time.Duration
	for _, ms := range st.Members {
		sum += ms.CPUTime
	}
	if sum != st.CPUTime {
		t.Fatalf("CPUTime %v != Σ member CPU %v", st.CPUTime, sum)
	}
}

// maskedIndex is the masked gather an Index had before only a Shadow took
// a mask, for the serial references below: with a mask, the members of the
// pair's two partitions whose bit is set, found by a scan of the live
// assignment; without one, the Index's own boundary gather.
type maskedIndex struct{ *partition.Index }

func (m maskedIndex) AppendPairUnsorted(dst []int32, pi, pj int32, allowed *partition.Bitset) []int32 {
	if allowed == nil {
		return m.Index.AppendPairUnsorted(dst, pi, pj, nil)
	}
	for v, q := range m.Partitioning().Assign {
		if (q == pi || q == pj) && allowed.Get(int32(v)) {
			dst = append(dst, int32(v))
		}
	}
	return dst
}

// serialSweep is the combine operator as it was before it ran on the wave
// engine, kept as the reference: one Index, one Refiner, and every pair of
// the touched partitions in ascending `for i < j` order on the calling
// goroutine. The mask comes from graph.ExpandFrontier, which shares
// nothing with Bitset.Expand.
func serialSweep(g *graph.Graph, a, b, base []int32, k int32, c [][]float64, cfg paragon.Config, rounds int) (assign []int32, loads []int64, moves int, gain float64) {
	p := &partition.Partitioning{K: k, Assign: slices.Clone(a)}
	ix := partition.BuildIndex(g, p)
	ref := aragon.NewRefiner(g, maskedIndex{ix}, cfg.AragonConfig())
	loads = p.Weights(g)
	inPart := make([]bool, k)
	var d []int32
	for v := range a {
		if a[v] != b[v] {
			d = append(d, int32(v))
			inPart[a[v]], inPart[b[v]] = true, true
		}
	}
	mask := partition.NewBitset(g.NumVertices())
	for _, v := range graph.ExpandFrontier(g, d, 1, nil) {
		mask.Set(v)
	}
	var parts []int32
	for q := int32(0); q < k; q++ {
		if inPart[q] {
			parts = append(parts, q)
		}
	}
	maxLoad := partition.BalanceBound(g, k, cfg.MaxImbalance)
	for r := 0; r < rounds && len(d) > 0; r++ {
		roundMoves := 0
		for i := 0; i < len(parts); i++ {
			for j := i + 1; j < len(parts); j++ {
				res := ref.RefinePair(base, parts[i], parts[j], c, loads, maxLoad, mask)
				roundMoves += res.Moves
				gain += res.Gain
			}
		}
		moves += roundMoves
		if roundMoves == 0 {
			break
		}
	}
	return p.Assign, loads, moves, gain
}

// TestCombineWavesMatchSerialSweep holds the combine's anti-diagonal waves
// to the serial sweep they replaced: under an off-diagonal-uniform matrix
// a pair reads and writes nothing outside its two partitions, the waves
// keep every two pairs that share a partition in lexicographic order, and
// so assignment, loads, kept moves and gain (to the bit) are the sweep's —
// at every worker count, for few and many touched partitions, for one
// round and two, when a round keeps nothing and when nothing disagrees.
func TestCombineWavesMatchSerialSweep(t *testing.T) {
	const k = 40
	g := gen.RMAT(4000, 24000, 0.57, 0.19, 0.19, 5)
	g.UseDegreeWeights()
	a := stream.HP(g, k).Assign
	// b: a, with every fifth vertex of the first m partitions handed to the
	// next of them, so that exactly those m are touched.
	dissent := func(m int32) []int32 {
		b := slices.Clone(a)
		for v := range b {
			if a[v] < m && v%5 == 0 {
				b[v] = (a[v] + 1) % m
			}
		}
		return b
	}
	uniform := func(cost float64) [][]float64 {
		c := topology.UniformMatrix(k)
		for i := range c {
			for j := range c[i] {
				c[i][j] *= cost
			}
		}
		return c
	}
	for _, tc := range []struct {
		name      string
		m         int32
		cost      float64
		rounds    int
		alpha     float64 // 0: the default
		wantPairs int     // per round that ran
		rounds0   int     // rounds expected to run
	}{
		{name: "m2", m: 2, cost: 1, rounds: 2, wantPairs: 1, rounds0: 2},
		{name: "m3", m: 3, cost: 2.5, rounds: 2, wantPairs: 3, rounds0: 2},
		{name: "m7", m: 7, cost: 1, rounds: 2, wantPairs: 21, rounds0: 2},
		{name: "m33", m: 33, cost: 2.5, rounds: 2, wantPairs: 528, rounds0: 2},
		{name: "m33-one-round", m: 33, cost: 1, rounds: 1, wantPairs: 528, rounds0: 1},
		// Communication weighs nothing against migration, so no prefix has a
		// positive gain: the first round keeps nothing and ends the combine.
		{name: "m7-keeps-nothing", m: 7, cost: 1, rounds: 2, alpha: 1e-9, wantPairs: 21, rounds0: 1},
		{name: "empty-D", m: 0, cost: 1, rounds: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, c := dissent(tc.m), uniform(tc.cost)
			cfg := paragon.Config{Alpha: tc.alpha}.WithDefaults(k)
			wantAssign, wantLoads, wantMoves, wantGain := serialSweep(g, a, b, a, k, c, cfg, tc.rounds)
			if keeps := tc.alpha == 0 && tc.m > 0; keeps != (wantMoves > 0) {
				t.Fatalf("the serial sweep kept %d moves; the case does not test what it names", wantMoves)
			}
			for _, workers := range []int{1, 2, 8} {
				cfg.Workers = workers
				var pl Pool
				pl.ensure(g, a, k, 1, 2, cfg.AragonConfig())
				for call := 0; call < 2; call++ { // the second on the pooled engine
					var st Stats
					pl.combine(&st, a, b, a, c, cfg, tc.rounds)
					got := pl.scratch[0].p
					if !slices.Equal(got.Assign, wantAssign) {
						t.Fatalf("workers=%d call %d: assignment differs from the serial sweep's", workers, call)
					}
					if !slices.Equal(got.Weights(g), wantLoads) {
						t.Fatalf("workers=%d call %d: loads %v, the serial sweep's %v", workers, call, got.Weights(g), wantLoads)
					}
					if st.CombineMoves != wantMoves || math.Float64bits(st.CombineGain) != math.Float64bits(wantGain) {
						t.Fatalf("workers=%d call %d: %d moves, gain %v; the serial sweep kept %d, gain %v",
							workers, call, st.CombineMoves, st.CombineGain, wantMoves, wantGain)
					}
					if st.CombinePairs != tc.rounds0*tc.wantPairs || st.CombineWaves != tc.rounds0*max(0, 2*int(tc.m)-3) {
						t.Fatalf("workers=%d call %d: %d pairs in %d waves, want %d rounds of %d pairs in %d waves",
							workers, call, st.CombinePairs, st.CombineWaves, tc.rounds0, tc.wantPairs, 2*int(tc.m)-3)
					}
					if err := pl.scratch[0].ix.Validate(); err != nil {
						t.Fatalf("workers=%d call %d: %v", workers, call, err)
					}
				}
			}
		})
	}
}

// serialMember is a member as it ran before it ran on the wave engine —
// refineRound, allowedMask and reloadWeights over one Index, kept as the
// reference: the live boundary of the pair's two partitions at k-hop 0
// (the Index's own gather), the round-start boundary expanded by
// graph.ExpandFrontier otherwise. The grouping is the member's own.
func serialMember(g *graph.Graph, base []int32, k int32, c [][]float64, cfg paragon.Config, seed int64) (assign []int32, loads []int64, moves int, gain float64) {
	scr := newMemberScratch(g, base, k, cfg.AragonConfig())
	scr.src.Seed(seed)
	groups := scr.regroup(cfg.DRP)
	p := &partition.Partitioning{K: k, Assign: slices.Clone(base)}
	ix := partition.BuildIndex(g, p)
	ref := aragon.NewRefiner(g, maskedIndex{ix}, cfg.AragonConfig())
	loads = make([]int64, k)
	for v := int32(0); v < g.NumVertices(); v++ {
		loads[p.Assign[v]] += int64(g.VertexWeight(v))
	}
	maxLoad := partition.BalanceBound(g, k, cfg.MaxImbalance)
	mask := partition.NewBitset(g.NumVertices())
	var shuffle []int
	for round := 0; round <= cfg.Shuffles; round++ {
		var allowed *partition.Bitset
		if cfg.KHop > 0 {
			mask.ClearAll()
			for _, v := range graph.ExpandFrontier(g, ix.Boundary(), cfg.KHop, nil) {
				mask.Set(v)
			}
			allowed = mask
		}
		var mv int
		var gn float64
		for _, grp := range groups {
			m := len(grp)
			for t := 0; t < m+(m&1)-1; t++ {
				for _, pr := range paragon.AppendTournamentRound(nil, grp, t) {
					res := ref.RefinePair(base, pr[0], pr[1], c, loads, maxLoad, allowed)
					mv += res.Moves
					gn += res.Gain
				}
			}
		}
		moves += mv
		gain += gn
		if round < cfg.Shuffles {
			shuffle = paragon.ShuffleGroupsScratch(groups, scr.rng, round, shuffle)
		}
	}
	return p.Assign, loads, moves, gain
}

// TestMembersOnEngineMatchSerialLoop holds the members' one-pair waves to
// the serial loop they replaced: with the mask repaired at every barrier
// (k-hop 0) or every round start, a pair's candidates and seeds are what
// the serial Index showed it, so each member's assignment, loads, kept
// moves and gain (to the bit) are the loop's — at k-hop 0/1/2, under a
// uniform and an architecture-aware matrix, odd and even groups, with and
// without shuffles, at Workers 1/2/8 and on a second call of one Pool,
// whose scratch 0 engine ran the combine at all the workers in between.
func TestMembersOnEngineMatchSerialLoop(t *testing.T) {
	for _, k := range []int32{16, 40} {
		g, p0, pitt := testInput(t, 2000, 12000, k)
		for _, cm := range []struct {
			name string
			c    [][]float64
		}{{"uniform", topology.UniformMatrix(int(k))}, {"pitt", pitt}} {
			for _, khop := range []int{0, 1, 2} {
				for _, shuffles := range []int{0, 2} {
					// DRP 3 of 16 and 8 of 40: groups of 5 and 6, odd ones included.
					drp := 3
					if k == 40 {
						drp = 8
					}
					name := fmt.Sprintf("k%d-%s-khop%d-shuffles%d", k, cm.name, khop, shuffles)
					cfg := paragon.Config{DRP: drp, Shuffles: shuffles, KHop: khop, Seed: 5,
						Portfolio: paragon.PortfolioConfig{Size: 3, CombineTop: 2}}.WithDefaults(k)
					type ref struct {
						assign []int32
						loads  []int64
						moves  int
						gain   float64
					}
					want := make([]ref, cfg.Portfolio.Size)
					for m := range want {
						w := &want[m]
						w.assign, w.loads, w.moves, w.gain = serialMember(g, p0.Assign, k, cm.c, cfg, memberSeed(cfg.Seed, m))
					}
					if want[0].moves == 0 {
						t.Fatalf("%s: member 0 kept no move; the comparison is vacuous", name)
					}
					var pool Pool
					for call, workers := range []int{1, 2, 8, 2} {
						cfg.Workers = workers
						st, err := RefineWithPool(g, p0.Clone(), cm.c, cfg, &pool)
						if err != nil {
							t.Fatal(err)
						}
						for m, w := range want {
							got := &partition.Partitioning{K: k, Assign: pool.assigns[m]}
							ms := st.Members[m]
							if !slices.Equal(got.Assign, w.assign) || !slices.Equal(got.Weights(g), w.loads) ||
								ms.Moves != w.moves || math.Float64bits(ms.Gain) != math.Float64bits(w.gain) {
								t.Fatalf("%s workers=%d call %d member %d: %d moves, gain %v; the serial loop kept %d, gain %v (assignment equal: %v)",
									name, workers, call, m, ms.Moves, ms.Gain, w.moves, w.gain, slices.Equal(got.Assign, w.assign))
							}
						}
					}
				}
			}
		}
	}
}

// TestPortfolioLeavesNoGoroutine: member workers and the combine's wave
// workers all end with the call, pooled state or not.
func TestPortfolioLeavesNoGoroutine(t *testing.T) {
	g, p0, c := testInput(t, 2000, 10000, 16)
	var pool Pool
	before := runtime.NumGoroutine()
	for call := 0; call < 3; call++ {
		st, err := RefineWithPool(g, p0.Clone(), c, paragon.Config{
			DRP: 4, Shuffles: 1, Seed: 3, Workers: 8,
			Portfolio: paragon.PortfolioConfig{Size: 4, CombineTop: 2},
		}, &pool)
		if err != nil {
			t.Fatal(err)
		}
		if st.CombinePairs == 0 {
			t.Fatal("the combine refined no pair; its workers never started")
		}
		// A goroutine that has signalled its exit may still be on its way
		// out: yield to it, never sleep.
		for i := 0; i < 1000 && runtime.NumGoroutine() > before; i++ {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("call %d: %d goroutines before RefineWithPool, %d after", call, before, n)
		}
	}
}

// TestObsCombineCountersAgreeWithStats: the combine's counters and trace
// event are views of the Stats the call returns.
func TestObsCombineCountersAgreeWithStats(t *testing.T) {
	g, p, c := testInput(t, 3000, 18000, 24)
	cfg := paragon.Config{
		DRP: 4, Shuffles: 1, Seed: 1, Trace: obs.NewTracer(0), Metrics: obs.NewRegistry(),
		Portfolio: paragon.PortfolioConfig{Size: 4, CombineTop: 2},
	}
	st, err := Refine(g, p, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.CombinePairs == 0 || st.CombineWaves == 0 || st.CombinePairs < st.CombineWaves {
		t.Fatalf("%d pairs in %d waves: the combine did not run", st.CombinePairs, st.CombineWaves)
	}
	for name, want := range map[string]int{
		"portfolio_combine_pairs_total":         st.CombinePairs,
		"portfolio_combine_waves_total":         st.CombineWaves,
		"portfolio_combine_moves_total":         st.CombineMoves,
		"portfolio_combine_diff_vertices_total": st.CombineDiff,
	} {
		if got := cfg.Metrics.Counter(name, "").Value(); got != int64(want) {
			t.Errorf("%s = %d, Stats says %d", name, got, want)
		}
	}
	seen := false
	for _, e := range cfg.Trace.Events() {
		if e.Kind == obs.KindPortfolioCombine {
			seen = true
			if int(e.A) != st.CombinePairs || int(e.B) != st.CombineWaves || int(e.N) != st.CombineDiff || int(e.M) != st.CombineMoves {
				t.Errorf("portfolio_combine event %+v, Stats %+v", e, zeroTimes(st))
			}
		}
	}
	if !seen {
		t.Error("no portfolio_combine event")
	}
}
