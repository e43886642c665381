// The benchmark is a module of its own so it builds from its own build
// file; the replace directive points at the repository it measures, and
// the shared "paragon/" import-path prefix is what lets it reach the
// internal packages.
module paragon/bench

go 1.22

require paragon v0.0.0

replace paragon => ../
