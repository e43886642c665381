// Command paragonbench is the repository's one benchmark: four workloads,
// an untraced pass for the end-to-end metrics and a traced pass for the
// per-layer table. See ../../README.md.
package main

import (
	"os"

	"paragon/bench"
)

func main() {
	os.Exit(bench.Main(os.Args[1:], os.Stdout, os.Stderr))
}
