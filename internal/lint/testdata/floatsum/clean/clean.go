// Package fixture shows order-deterministic float accumulation, the
// clean case of the deleted floatsum checker; no checker of the suite
// may report anything here.
package fixture

import "sort"

// The bitmap-drain idiom: collect keys, sort, then accumulate in a
// fixed order.
func sortedDrain(m map[int]float64) float64 {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var sum float64
	for _, k := range keys {
		sum += m[k]
	}
	return sum
}

// Integer accumulation is exact; order cannot matter.
func intAccum(m map[int]int64) int64 {
	var n int64
	for _, v := range m {
		n += v
	}
	return n
}

// Slice iteration has a fixed order; no diagnostic.
func sliceSum(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum
}

// A tolerated drift, silenced with a reason.
func tolerated(m map[int]float64) float64 {
	var sum float64
	//lint:ignore maprange diagnostic-only aggregate; ULP drift is acceptable
	for _, v := range m {
		sum += v
	}
	return sum
}
