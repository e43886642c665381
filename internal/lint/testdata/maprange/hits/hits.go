// Package fixture holds map-range loops whose result depends on Go's
// randomized map iteration order; every loop below must be reported.
package fixture

import (
	"slices"
	"sort"
)

// argmax over a map: ties resolve by whichever key the runtime yields
// first, so the winner changes between runs.
func argmax(aff map[int32]int64) int32 {
	best := int32(-1)
	var bestGain int64
	for pu, a := range aff {
		if a > bestGain {
			best = pu
			bestGain = a
		}
	}
	return best
}

// Keys escape in map order and are never sorted.
func keysUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// Early exit: which matching key wins depends on iteration order.
func firstMatch(m map[int]int) (int, bool) {
	for k, v := range m {
		if v > 10 {
			return k, true
		}
	}
	return 0, false
}

// Float accumulation is not associative, so the sum differs in ULPs
// between iteration orders.
func floatAccum(m map[int]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum
}

// Collect-then-check: the keys are tested for order, never put in
// order, so they still escape in map order.
func keysChecked(m map[int]int) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	if !slices.IsSorted(keys) {
		return nil
	}
	return keys
}

// The same check through the sort package.
func keysAreSorted(m map[int]int) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	if !sort.IntsAreSorted(keys) {
		return nil
	}
	return keys
}
