package partition

// SetMaxProfileEntries changes the arena limit NewNeighborProfile refuses
// past, so a test (TestRefineRefusesOversizedProfile lives outside the
// package, to import the refiner) reaches the refusal with a graph it can
// hold. It returns the call that restores the old limit.
func SetMaxProfileEntries(n int64) (restore func()) {
	old := maxProfileEntries
	maxProfileEntries = n
	return func() { maxProfileEntries = old }
}

// SetMaxObjective changes the bound CheckObjective refuses at, so tests
// reach the refusal with a graph they can hold. It returns the call that
// restores the old bound.
func SetMaxObjective(n int64) (restore func()) {
	old := maxObjective
	maxObjective = n
	return func() { maxObjective = old }
}
