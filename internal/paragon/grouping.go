package paragon

import (
	"math/rand"
)

// selectMaster implements Eq. 11: pick the server m minimizing the total
// cost of exchanging auxiliary data with every other server,
// min_m Σ_{i≠m} (c(Pi, Pm) + c(Pm, Pi)) — the exchange is bidirectional
// (servers push updates to the master and pull the merged view back), so
// both directions of an asymmetric cost matrix count. Every server
// computes this locally without synchronization, so determinism matters:
// ties break to the lowest id.
func selectMaster(k int32, c [][]float64) int32 {
	best := int32(0)
	bestCost := masterCost(0, k, c)
	for m := int32(1); m < k; m++ {
		if cost := masterCost(m, k, c); cost < bestCost {
			best, bestCost = m, cost
		}
	}
	return best
}

func masterCost(m, k int32, c [][]float64) float64 {
	var total float64
	for i := int32(0); i < k; i++ {
		if i != m {
			total += c[i][m] + c[m][i]
		}
	}
	return total
}

// randomGrouping splits partitions 0..k-1 into drp groups of (nearly)
// equal size, each with at least two partitions. §5 observes that random
// grouping plus shuffle refinement works well because the streaming
// input decompositions have edge cuts across essentially all pairs.
func randomGrouping(k int32, drp int, rng *rand.Rand) [][]int32 {
	perm := rng.Perm(int(k))
	m := drp
	if m > int(k)/2 {
		m = int(k) / 2
	}
	if m < 1 {
		m = 1
	}
	groups := make([][]int32, m)
	for idx, pi := range perm {
		gi := idx % m
		groups[gi] = append(groups[gi], int32(pi))
	}
	return groups
}

// SelectGroupServers implements Eq. 10: for each group, choose the server
// s minimizing Σ_{Pi∈g} ps[i] · c(Pi, Ps) · (1 + σ(s)/drp), where ps[i]
// approximates the data partition i ships (its incident edges) and σ(s)
// is the number of group servers already placed on s's compute node —
// the penalty that avoids concentrating group servers (and their memory
// footprint) on one node. nodeOf may be nil (each server its own node).
//
// Ties break deterministically toward the lowest-id member of the group:
// a group whose candidate costs are all equal (e.g. every member has
// zero incident edges early in a refinement) should host itself rather
// than ship to an arbitrary foreign server — server 0 was the old
// accidental winner, paying needless boundary shipping for every group
// that didn't contain it.
func SelectGroupServers(groups [][]int32, ps []int64, c [][]float64, nodeOf []int, drp int) []int32 {
	k := len(ps)
	servers := make([]int32, len(groups))
	member := make([]bool, k)
	nodeServerCount := map[int]int{}
	node := func(s int) int {
		if nodeOf != nil {
			return nodeOf[s]
		}
		return s
	}
	for gi, grp := range groups {
		for _, pi := range grp {
			member[pi] = true
		}
		best := int32(-1)
		bestCost := 0.0
		bestIn := false
		for s := 0; s < k; s++ {
			sigma := float64(nodeServerCount[node(s)])
			penalty := 1 + sigma/float64(drp)
			var cost float64
			for _, pi := range grp {
				cost += float64(float64(ps[pi]) * c[pi][s] * penalty)
			}
			// Strict improvement wins; an exact tie only displaces the
			// incumbent when it upgrades an out-of-group server to an
			// in-group one. Ascending s makes both rules favor low ids.
			if best < 0 || cost < bestCost || (cost == bestCost && member[s] && !bestIn) {
				best, bestCost, bestIn = int32(s), cost, member[s]
			}
		}
		servers[gi] = best
		nodeServerCount[node(int(best))]++
		for _, pi := range grp {
			member[pi] = false
		}
	}
	return servers
}

// ShuffleGroupsScratch performs one shuffle-refinement swap: each group
// hands a random partition to a randomly paired partner group and receives
// one back, expanding the set of partition pairs the next round can refine.
// Groups of size ≤ 2 still swap (sizes are preserved by the exchange).
// scratch is a caller-owned permutation buffer (grown as needed and
// returned), so per-round callers — the driver and the portfolio members,
// whose allocs/op must stay flat in the member count — allocate nothing in
// steady state; the draw sequence is the same for any scratch. Exported
// because portfolio members run the same shuffle discipline over their own
// groupings.
func ShuffleGroupsScratch(groups [][]int32, rng *rand.Rand, round int, scratch []int) []int {
	m := len(groups)
	if m < 2 {
		return scratch
	}
	order := permInto(rng, m, scratch)
	for i := 0; i+1 < m; i += 2 {
		a, b := order[i], order[i+1]
		ai := rng.Intn(len(groups[a]))
		bi := rng.Intn(len(groups[b]))
		groups[a][ai], groups[b][bi] = groups[b][bi], groups[a][ai]
	}
	// With an odd group count, rotate one partition through the last
	// group too so no group is starved of fresh pairs.
	if m%2 == 1 && m >= 3 {
		last := order[m-1]
		other := order[0]
		li := rng.Intn(len(groups[last]))
		oi := rng.Intn(len(groups[other]))
		groups[last][li], groups[other][oi] = groups[other][oi], groups[last][li]
	}
	return order
}

// permInto reproduces rand.Perm's exact draw sequence (inside-out
// Fisher-Yates, one Intn(i+1) per i in [0, n) — the i = 0 draw is a
// no-op swap but still consumes from the source) into a reused buffer,
// so ShuffleGroupsScratch emits the permutation stream rand.Perm
// would — pinned by TestShuffleGroupsScratchMatchesPerm.
func permInto(rng *rand.Rand, n int, dst []int) []int {
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		dst[i] = dst[j]
		dst[j] = i
	}
	return dst
}
