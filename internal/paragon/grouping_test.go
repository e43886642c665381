package paragon

import (
	"math/rand"
	"sort"
	"testing"
)

func TestSelectMasterAsymmetricMatrix(t *testing.T) {
	// Eq. 11 regression: the auxiliary exchange is bidirectional, so both
	// c[i][m] (servers push to the master) and c[m][i] (the master pushes
	// back) must count. Server 2 here is cheap to reach but expensive to
	// send from — summing only the inbound column crowned it master;
	// the bidirectional sum picks server 0.
	c := [][]float64{
		{0, 1, 1},
		{1, 0, 1},
		{8, 8, 0},
	}
	var inbound [3]float64
	for m := 0; m < 3; m++ {
		for i := 0; i < 3; i++ {
			if i != m {
				inbound[m] += c[i][m]
			}
		}
	}
	if !(inbound[2] < inbound[0] && inbound[2] < inbound[1]) {
		t.Fatal("test matrix no longer exercises the inbound-only bug")
	}
	if m := selectMaster(3, c); m != 0 {
		t.Fatalf("master = %d, want 0 (bidirectional cost); inbound-only would pick 2", m)
	}
}

func TestSelectMasterSymmetricUnchangedByDirectionFix(t *testing.T) {
	// On a symmetric matrix the bidirectional sum is exactly twice the
	// inbound sum — same argmin, so existing goldens stand. Cross-check
	// against a direct inbound-only argmin.
	c := [][]float64{
		{0, 2, 7, 4},
		{2, 0, 3, 5},
		{7, 3, 0, 1},
		{4, 5, 1, 0},
	}
	bestIn, bestInCost := 0, 0.0
	for m := 0; m < 4; m++ {
		var cost float64
		for i := 0; i < 4; i++ {
			if i != m {
				cost += c[i][m]
			}
		}
		if m == 0 || cost < bestInCost {
			bestIn, bestInCost = m, cost
		}
	}
	if m := selectMaster(4, c); int(m) != bestIn {
		t.Fatalf("master = %d on a symmetric matrix, inbound argmin = %d; direction fix must not move it", m, bestIn)
	}
}

func TestSelectGroupServersZeroWeightTieBreak(t *testing.T) {
	// Eq. 10 regression: with zero shipping mass every candidate costs 0,
	// and the old strict-less comparison left the initial s=0 in place —
	// every group got server 0, even groups that don't contain it. Ties
	// must break toward the lowest-id member of the group.
	k := 6
	c := make([][]float64, k)
	for i := range c {
		c[i] = make([]float64, k)
		for j := range c[i] {
			if i != j {
				c[i][j] = 1
			}
		}
	}
	ps := make([]int64, k) // no partition ships anything
	groups := [][]int32{{5, 3}, {2, 4}, {0, 1}}
	servers := SelectGroupServers(groups, ps, c, nil, len(groups))
	want := []int32{3, 2, 0}
	for gi := range groups {
		if servers[gi] != want[gi] {
			t.Fatalf("group %d (%v) server = %d, want %d (lowest in-group id on ties)",
				gi, groups[gi], servers[gi], want[gi])
		}
	}
}

func TestSelectGroupServersStrictImprovementStillWins(t *testing.T) {
	// The tie-break must not override a genuinely cheaper foreign server:
	// group {1, 2} ships mass and server 0 is free to reach while every
	// other candidate costs full price — 0 stays the right answer.
	c := [][]float64{
		{0, 1, 1},
		{0, 0, 1},
		{0, 1, 0},
	}
	ps := []int64{10, 10, 10}
	servers := SelectGroupServers([][]int32{{1, 2}}, ps, c, nil, 1)
	if servers[0] != 0 {
		t.Fatalf("server = %d, want the strictly cheaper foreign server 0", servers[0])
	}
}

func TestShuffleGroupsProperties(t *testing.T) {
	// ShuffleGroupsScratch must permute partitions between groups without ever
	// duplicating or dropping one, and without changing any group's size —
	// for even and odd group counts (the odd path has an extra rotation).
	for _, m := range []int{2, 3, 4, 5, 7} {
		for seed := int64(0); seed < 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			k := int32(4 * m) // uneven split: some groups get an extra partition
			groups := randomGrouping(k, m, rng)
			sizes := make([]int, len(groups))
			for gi, grp := range groups {
				sizes[gi] = len(grp)
			}
			for round := 0; round < 8; round++ {
				ShuffleGroupsScratch(groups, rng, round, nil)
				var flat []int32
				for gi, grp := range groups {
					if len(grp) != sizes[gi] {
						t.Fatalf("m=%d seed=%d round=%d: group %d size %d, want %d",
							m, seed, round, gi, len(grp), sizes[gi])
					}
					flat = append(flat, grp...)
				}
				sort.Slice(flat, func(i, j int) bool { return flat[i] < flat[j] })
				if int32(len(flat)) != k {
					t.Fatalf("m=%d seed=%d round=%d: %d partitions, want %d", m, seed, round, len(flat), k)
				}
				for i, v := range flat {
					if v != int32(i) {
						t.Fatalf("m=%d seed=%d round=%d: partition %d missing or duplicated (flat[%d]=%d)",
							m, seed, round, i, i, v)
					}
				}
			}
		}
	}
}

// TestShuffleGroupsScratchMatchesPerm pins the draw-sequence equivalence
// of permInto and rand.Perm: ShuffleGroupsScratch must consume the rng
// stream identically whether its scratch is fresh or reused, or every
// seeded run downstream of a shuffle (golden hashes included) drifts.
func TestShuffleGroupsScratchMatchesPerm(t *testing.T) {
	for n := 0; n <= 17; n++ {
		a := rand.New(rand.NewSource(int64(100 + n)))
		b := rand.New(rand.NewSource(int64(100 + n)))
		want := a.Perm(n)
		got := permInto(b, n, make([]int, 3))
		if len(got) != len(want) {
			t.Fatalf("n=%d: length %d, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: permInto %v, rand.Perm %v", n, got, want)
			}
		}
		// Both sources must be left in the same state.
		if a.Int63() != b.Int63() {
			t.Fatalf("n=%d: permInto consumed a different number of draws than rand.Perm", n)
		}
	}
	// And a fresh and a reused scratch must transform groups identically.
	mk := func() [][]int32 {
		return [][]int32{{0, 5}, {1, 6, 9}, {2, 7}, {3, 8}, {4}}
	}
	g1, g2 := mk(), mk()
	r1 := rand.New(rand.NewSource(42))
	r2 := rand.New(rand.NewSource(42))
	var scratch []int
	for round := 0; round < 6; round++ {
		ShuffleGroupsScratch(g1, r1, round, nil)
		scratch = ShuffleGroupsScratch(g2, r2, round, scratch)
		for gi := range g1 {
			for i := range g1[gi] {
				if g1[gi][i] != g2[gi][i] {
					t.Fatalf("round %d: shuffle divergence at group %d: %v vs %v", round, gi, g1[gi], g2[gi])
				}
			}
		}
	}
}
