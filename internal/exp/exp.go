// Package exp is the experiment harness: one function per table and
// figure of the paper's evaluation (§7), each returning a structured
// Table that cmd/experiments prints and bench_test.go exercises. The
// harness fixes the environments to scaled-down models of the paper's
// two platforms and takes a single size multiplier so the full suite can
// run anywhere from laptop benchmarks (scale ≈ 0.05) to the standard
// reproduction size (scale = 1).
package exp

import (
	"fmt"
	"strings"
	"time"

	"paragon/internal/bsp"
	"paragon/internal/graph"
	"paragon/internal/metis"
	"paragon/internal/paragon"
	"paragon/internal/parmetis"
	"paragon/internal/partition"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

// ExperimentInfo names one runnable experiment.
type ExperimentInfo struct {
	ID    string
	What  string
	Paper string // the paper table/figure it regenerates, or "extension"
}

// Manifest enumerates every experiment cmd/experiments can run.
func Manifest() []ExperimentInfo {
	return []ExperimentInfo{
		{"fig7", "refinement time & quality vs degree of parallelism", "Figures 7a/7b"},
		{"fig8", "shuffle refinement rounds vs ARAGON", "Figure 8"},
		{"fig9", "initial partitioner quality sweep (also fig10/fig11)", "Figures 9-11"},
		{"table4", "BFS job execution time, all algorithms × clusters", "Table 4"},
		{"table5", "SSSP job execution time", "Table 5"},
		{"fig12", "BFS volume breakdown, PittMPICluster", "Figure 12"},
		{"fig13", "BFS volume breakdown, Gordon", "Figure 13"},
		{"fig14", "BFS JET across growing snapshots", "Figure 14"},
		{"fig15", "JET and refinement time vs graph scale (also fig16)", "Figures 15/16"},
		{"table1", "shared-resource contention matrix", "Table 1"},
		{"lambda", "contention degree sweep on both clusters", "§6 profiling"},
		{"ablations", "k-hop, server penalty, uniform-cost ablations", "DESIGN.md §6"},
		{"streamorder", "stream arrival-order sensitivity", "extension (§7.1)"},
	}
}

// Table is a formatted experiment result.
type Table struct {
	ID     string // e.g. "fig7a", "table4"
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// CSV renders the table as RFC-4180 CSV (header row first). The table id
// and title go into a leading comment line.
func (t *Table) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s\n", t.ID, t.Title)
	writeCSVRow(&b, t.Header)
	for _, row := range t.Rows {
		writeCSVRow(&b, row)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, cell := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(cell, ",\"\n") {
			b.WriteByte('"')
			b.WriteString(strings.ReplaceAll(cell, `"`, `""`))
			b.WriteByte('"')
		} else {
			b.WriteString(cell)
		}
	}
	b.WriteByte('\n')
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// Env is an evaluation environment: a modeled cluster with the paper's
// per-platform settings for the contention degree λ (§6: 1 on the
// intra-node-bound PittMPICluster, 0 on the network-bound Gordon) and
// the BSP simulator's memory-contention factor.
type Env struct {
	Name       string
	Cluster    *topology.Cluster
	K          int     // partitions = cores used
	Lambda     float64 // Eq. 12 degree of contention for refinement
	Contention float64 // BSP memory-subsystem contention factor
	Alpha      float64 // Eq. 2 α
	GroupSize  int     // BSP message grouping
}

// PittEnv models n PittMPICluster nodes (2×10 cores each).
func PittEnv(nodes int) Env {
	return Env{
		Name:       "PittMPICluster",
		Cluster:    topology.PittCluster(nodes),
		K:          20 * nodes,
		Lambda:     1.0,
		Contention: 0.6,
		Alpha:      10,
		GroupSize:  8,
	}
}

// GordonEnv models n Gordon nodes (2×8 cores each).
func GordonEnv(nodes int) Env {
	return Env{
		Name:       "Gordon",
		Cluster:    topology.GordonCluster(nodes),
		K:          16 * nodes,
		Lambda:     0.0,
		Contention: 0.1,
		Alpha:      10,
		GroupSize:  8,
	}
}

// Matrix returns the partition cost matrix with the environment's λ.
func (e Env) Matrix() [][]float64 {
	m, err := e.Cluster.PartitionCostMatrix(e.K, e.Lambda)
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	return m
}

// PlainMatrix returns the cost matrix without the contention penalty —
// the communication-heterogeneity-only view used for reporting comm
// costs comparably across λ settings.
func (e Env) PlainMatrix() [][]float64 {
	m, err := e.Cluster.PartitionCostMatrix(e.K, 0)
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	return m
}

// NodeOf returns the rank→node mapping for Eq. 10.
func (e Env) NodeOf() []int {
	n, err := e.Cluster.NodeOf(e.K)
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	return n
}

// BSPOptions returns the simulator settings for this environment.
func (e Env) BSPOptions() bsp.Options {
	return bsp.Options{MsgGroupSize: e.GroupSize, MemoryContention: e.Contention}
}

// Partitioner names an initial partitioner of Figures 9–11.
type Partitioner struct {
	Name string
	Run  func(g *graph.Graph, k int32) *partition.Partitioning
}

// InitialPartitioners returns HP, DG, LDG, and METIS in the paper's
// presentation order.
func InitialPartitioners() []Partitioner {
	return []Partitioner{
		{Name: "HP", Run: func(g *graph.Graph, k int32) *partition.Partitioning {
			return stream.HP(g, k)
		}},
		{Name: "DG", Run: func(g *graph.Graph, k int32) *partition.Partitioning {
			return stream.DG(g, k, stream.DefaultOptions())
		}},
		{Name: "LDG", Run: func(g *graph.Graph, k int32) *partition.Partitioning {
			return stream.LDG(g, k, stream.DefaultOptions())
		}},
		{Name: "METIS", Run: func(g *graph.Graph, k int32) *partition.Partitioning {
			return metis.Partition(g, k, metis.Options{Seed: 100})
		}},
	}
}

// RefineParagon applies PARAGON with the paper's microbenchmark settings
// (drp and shuffles both 8 unless overridden) and returns the stats.
func RefineParagon(g *graph.Graph, p *partition.Partitioning, env Env, drp, shuffles int, seed int64) paragon.Stats {
	cfg := paragon.DefaultConfig()
	cfg.DRP = drp
	cfg.Shuffles = shuffles
	cfg.Seed = seed
	cfg.Alpha = env.Alpha
	cfg.NodeOf = env.NodeOf()
	st, err := paragon.Refine(g, p, env.Matrix(), cfg)
	if err != nil {
		panic(fmt.Sprintf("exp: paragon refine: %v", err))
	}
	return st
}

// paragonCfg builds a PARAGON config for the environment.
func paragonCfg(env Env, drp, shuffles int, seed int64) paragon.Config {
	cfg := paragon.DefaultConfig()
	cfg.DRP = drp
	cfg.Shuffles = shuffles
	cfg.Seed = seed
	cfg.Alpha = env.Alpha
	cfg.NodeOf = env.NodeOf()
	return cfg
}

// refineWith runs PARAGON with an explicit config against the
// environment's matrix.
func refineWith(g *graph.Graph, p *partition.Partitioning, env Env, cfg paragon.Config) paragon.Stats {
	st, err := paragon.Refine(g, p, env.Matrix(), cfg)
	if err != nil {
		panic(fmt.Sprintf("exp: paragon refine: %v", err))
	}
	return st
}

// RefineUniParagon applies the UNIPARAGON baseline (uniform costs).
func RefineUniParagon(g *graph.Graph, p *partition.Partitioning, env Env, drp, shuffles int, seed int64) paragon.Stats {
	cfg := paragon.DefaultConfig()
	cfg.DRP = drp
	cfg.Shuffles = shuffles
	cfg.Seed = seed
	cfg.Alpha = env.Alpha
	st, err := paragon.RefineUniform(g, p, cfg)
	if err != nil {
		panic(fmt.Sprintf("exp: uniparagon refine: %v", err))
	}
	return st
}

// RepartitionParMetis applies the ParMETIS-style scratch-remap baseline.
func RepartitionParMetis(g *graph.Graph, p *partition.Partitioning, seed int64) (*partition.Partitioning, time.Duration) {
	start := time.Now()
	out, err := parmetis.Repartition(g, p, parmetis.Options{Method: parmetis.ScratchRemap, Seed: seed})
	if err != nil {
		panic(fmt.Sprintf("exp: parmetis: %v", err))
	}
	return out, time.Since(start)
}

func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f0(x float64) string { return fmt.Sprintf("%.0f", x) }
func secs(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}
