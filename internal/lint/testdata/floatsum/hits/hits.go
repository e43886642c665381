// Package fixture accumulates floats in nondeterministic order, the hits
// case of the deleted floatsum checker; maprange and sharedwrite must
// still report every accumulation below.
package fixture

// Map iteration order varies per run, and float addition is not
// associative, so the sum drifts in ULPs.
func mapOrder(m map[int]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum
}

// Goroutine interleaving orders these additions arbitrarily.
func goOrder(parts [][]float64, out *float64) {
	for _, p := range parts {
		go func(p []float64) {
			for _, x := range p {
				*out = *out + x
			}
		}(p)
	}
}
