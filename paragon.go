// Package paragon is the public API of the PARAGON reproduction: a
// parallel architecture-aware graph partition refinement library (Zheng
// et al., EDBT 2016) together with everything needed to use it — graph
// loading and generation, hardware topology modeling, initial
// partitioners, baselines, a cluster execution simulator, and the
// physical migration service.
//
// The minimal flow:
//
//	g, _ := paragon.ReadMETISFile("social.graph")
//	g.UseDegreeWeights()
//	cluster := paragon.PittCluster(2)
//	costs, _ := cluster.PartitionCostMatrix(cluster.TotalCores(), 1.0)
//	p := paragon.DG(g, int32(cluster.TotalCores()))
//	stats, _ := paragon.Refine(g, p, costs, paragon.DefaultConfig())
//
// Each subsystem's full surface lives in the corresponding internal
// package; this facade re-exports the types and entry points a
// downstream user needs, so the internal packages can evolve freely.
package paragon

import (
	"io"

	"paragon/internal/apps"
	"paragon/internal/aragon"
	"paragon/internal/bsp"
	"paragon/internal/dir"
	"paragon/internal/dyn"
	"paragon/internal/faultsim"
	"paragon/internal/gen"
	"paragon/internal/graph"
	"paragon/internal/metis"
	"paragon/internal/migrate"
	"paragon/internal/obs"
	"paragon/internal/paragon"
	"paragon/internal/parmetis"
	"paragon/internal/partition"
	"paragon/internal/portfolio"
	"paragon/internal/session"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

// ---- Graphs ----

// Graph is an immutable undirected CSR graph with vertex weights, vertex
// sizes, and edge weights.
type Graph = graph.Graph

// Builder accumulates edges and produces a Graph.
type Builder = graph.Builder

// Overlay is a mutable edge add/remove view over a Graph.
type Overlay = graph.Overlay

// NewBuilder returns a builder for a graph with n vertices.
func NewBuilder(n int32) *Builder { return graph.NewBuilder(n) }

// NewOverlay wraps a graph for edge mutation.
func NewOverlay(g *Graph) *Overlay { return graph.NewOverlay(g) }

// ReadMETIS parses a METIS .graph stream.
func ReadMETIS(r io.Reader) (*Graph, error) { return graph.ReadMETIS(r) }

// ReadMETISFile parses a METIS .graph file.
func ReadMETISFile(path string) (*Graph, error) { return graph.ReadFile(path, "metis") }

// WriteMETIS writes a graph in METIS format.
func WriteMETIS(w io.Writer, g *Graph) error { return graph.WriteMETIS(w, g) }

// ReadEdgeList parses a "u v [w]" edge-list stream.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// ReadBinary parses the library's binary CSR format.
func ReadBinary(r io.Reader) (*Graph, error) { return graph.ReadBinary(r) }

// WriteBinary writes the binary CSR format.
func WriteBinary(w io.Writer, g *Graph) error { return graph.WriteBinary(w, g) }

// ---- Synthetic datasets ----

// RMAT generates a power-law Kronecker graph (social-network class).
func RMAT(n int32, m int64, a, b, c float64, seed int64) *Graph {
	return gen.RMAT(n, m, a, b, c, seed)
}

// Mesh2D generates a triangulated FEM-style mesh.
func Mesh2D(rows, cols int32) *Graph { return gen.Mesh2D(rows, cols) }

// RoadGrid generates a near-planar road-network-like graph.
func RoadGrid(rows, cols int32, keep, diag float64, seed int64) *Graph {
	return gen.RoadGrid(rows, cols, keep, diag, seed)
}

// Dataset is a named stand-in for one of the paper's evaluation datasets.
type Dataset = gen.Dataset

// Datasets lists the paper's twelve Figure 9–11 dataset stand-ins.
func Datasets() []Dataset { return gen.Datasets() }

// ---- Hardware topology ----

// Cluster models a multicore cluster (nodes, sockets, caches, fabric).
type Cluster = topology.Cluster

// NodeSpec describes one compute node.
type NodeSpec = topology.NodeSpec

// Interconnect abstracts the network between nodes.
type Interconnect = topology.Interconnect

// PittCluster models n flat-switch 2×10-core NUMA nodes (the paper's
// PittMPICluster).
func PittCluster(nodes int) *Cluster { return topology.PittCluster(nodes) }

// GordonCluster models n 3D-torus 2×8-core NUMA nodes (the paper's
// Gordon).
func GordonCluster(nodes int) *Cluster { return topology.GordonCluster(nodes) }

// NewCluster builds a custom cluster.
func NewCluster(name string, nodes []NodeSpec, net Interconnect, lat topology.LatencyModel) (*Cluster, error) {
	return topology.NewCluster(name, nodes, net, lat)
}

// UniformMatrix returns the architecture-agnostic k×k cost matrix.
func UniformMatrix(k int) [][]float64 { return topology.UniformMatrix(k) }

// ---- Decompositions and metrics ----

// Partitioning assigns every vertex to one of K partitions.
type Partitioning = partition.Partitioning

// Quality bundles the §3 metrics (edge cut, Eq. 2 comm cost, Eq. 4 skew).
type Quality = partition.Quality

// Evaluate computes the quality metrics of a decomposition.
func Evaluate(g *Graph, p *Partitioning, c [][]float64, alpha float64) Quality {
	return partition.Evaluate(g, p, c, alpha)
}

// CommCost computes Eq. 2.
func CommCost(g *Graph, p *Partitioning, c [][]float64, alpha float64) float64 {
	return partition.CommCost(g, p, c, alpha)
}

// MigrationCost computes Eq. 3 between two decompositions.
func MigrationCost(g *Graph, old, now *Partitioning, c [][]float64) float64 {
	return partition.MigrationCost(g, old, now, c)
}

// Skewness computes Eq. 4.
func Skewness(g *Graph, p *Partitioning) float64 { return partition.Skewness(g, p) }

// ---- Initial partitioners ----

// HP hashes vertices across k partitions.
func HP(g *Graph, k int32) *Partitioning { return stream.HP(g, k) }

// DG runs the deterministic-greedy streaming partitioner (2% imbalance).
func DG(g *Graph, k int32) *Partitioning { return stream.DG(g, k, stream.DefaultOptions()) }

// LDG runs the linear deterministic-greedy streaming partitioner.
func LDG(g *Graph, k int32) *Partitioning { return stream.LDG(g, k, stream.DefaultOptions()) }

// Metis runs the multilevel partitioner (recursive bisection).
func Metis(g *Graph, k int32, seed int64) *Partitioning {
	return metis.Partition(g, k, metis.Options{Seed: seed})
}

// Repartition adapts an existing decomposition with the ParMETIS-style
// scratch-remap strategy.
func Repartition(g *Graph, old *Partitioning, seed int64) (*Partitioning, error) {
	return parmetis.Repartition(g, old, parmetis.Options{Seed: seed})
}

// ---- Refinement (the paper's contribution) ----

// Config tunes PARAGON refinement.
type Config = paragon.Config

// Stats reports what a refinement did.
type Stats = paragon.Stats

// DefaultConfig returns the paper's defaults (drp=8, 8 shuffles, α=10).
func DefaultConfig() Config { return paragon.DefaultConfig() }

// Refine improves a decomposition in place against a relative cost
// matrix (see Cluster.PartitionCostMatrix), returning statistics.
func Refine(g *Graph, p *Partitioning, c [][]float64, cfg Config) (Stats, error) {
	return paragon.Refine(g, p, c, cfg)
}

// RefineUniform runs the UNIPARAGON baseline (uniform costs).
func RefineUniform(g *Graph, p *Partitioning, cfg Config) (Stats, error) {
	return paragon.RefineUniform(g, p, cfg)
}

// RefineSerial runs the serial ARAGON refiner over all partition pairs.
func RefineSerial(g *Graph, p *Partitioning, c [][]float64, alpha, maxImbalance float64) error {
	_, err := aragon.Refine(g, p, c, aragon.Config{Alpha: alpha, MaxImbalance: maxImbalance})
	return err
}

// ---- Portfolio refinement ----

// PortfolioConfig sizes the seeded-ensemble layer (Config.Portfolio).
type PortfolioConfig = paragon.PortfolioConfig

// PortfolioStats reports what a portfolio refinement did, per member.
type PortfolioStats = portfolio.Stats

// PortfolioMemberStats is one member's line in PortfolioStats.
type PortfolioMemberStats = portfolio.MemberStats

// PortfolioPool is reusable portfolio scratch: passing one pool across
// RefinePortfolioWithPool calls on the same (graph, k) keeps allocations
// flat in the member count.
type PortfolioPool = portfolio.Pool

// Score is the shared Eq. 2–4 scorer's result (partition.ComputeScore):
// edge cut, communication cost, migration cost, and skewness, with the
// deterministic Better total order used for portfolio selection.
type Score = partition.Score

// ComputeScore evaluates the Eq. 2–4 metrics of p in one sweep. orig is
// the Eq. 3 migration reference assignment; nil scores in place.
func ComputeScore(g *Graph, p *Partitioning, orig []int32, c [][]float64, alpha float64) Score {
	return partition.ComputeScore(g, p, orig, c, alpha)
}

// RefinePortfolio races cfg.Portfolio.Size independently seeded
// refinements of p on cfg.Workers workers, scores every member with the
// Eq. 2–4 metrics, overlays the two best via the combine operator, and
// leaves the selected decomposition in p. The selection is bit-identical
// at every worker count.
func RefinePortfolio(g *Graph, p *Partitioning, c [][]float64, cfg Config) (PortfolioStats, error) {
	return portfolio.Refine(g, p, c, cfg)
}

// RefinePortfolioWithPool is RefinePortfolio on caller-owned scratch.
func RefinePortfolioWithPool(g *Graph, p *Partitioning, c [][]float64, cfg Config, pool *PortfolioPool) (PortfolioStats, error) {
	return portfolio.RefineWithPool(g, p, c, cfg, pool)
}

// ---- Observability ----

// Tracer is the deterministic structured-event tracer: install one via
// Config.Trace to receive the refinement's round/wave/pair/fault/
// exchange event stream, stamped with virtual ticks and sequence
// numbers — bit-identical for every Config.Workers value.
type Tracer = obs.Tracer

// TraceEvent is one trace record.
type TraceEvent = obs.Event

// MetricsRegistry collects the per-phase counters, gauges, and
// histograms of a refinement; install one via Config.Metrics.
type MetricsRegistry = obs.Registry

// NewTracer returns a tracer with a ring of capacity events (<= 0 picks
// the default, 65536).
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// WriteTrace serializes a tracer's retained events as JSONL.
func WriteTrace(w io.Writer, t *Tracer) error { return obs.WriteJSONL(w, t) }

// WriteMetrics serializes a registry in the Prometheus text exposition
// format.
func WriteMetrics(w io.Writer, r *MetricsRegistry) error { return obs.WriteProm(w, r) }

// WriteMetricsSummary renders a registry as a human per-phase table.
func WriteMetricsSummary(w io.Writer, r *MetricsRegistry) error { return obs.WriteSummary(w, r) }

// ---- Fault injection ----

// FaultConfig tunes the deterministic fault injector: a seed, a
// per-fault-point rate, and an optional scripted schedule.
type FaultConfig = faultsim.Config

// FaultInjector generates replayable fault schedules: group-server
// crashes, straggler delays, exchange message drops, and migration
// aborts, each a pure hash of (seed, coordinates). Install one via
// Config.Fabric, or set Config.FaultRate/FaultSeed to have Refine build
// its own. Its Realized method returns the schedule that fired, which
// replays bit-identically as FaultConfig.Script.
type FaultInjector = faultsim.Injector

// FaultEvent is one scripted (or realized) fault.
type FaultEvent = faultsim.Event

// FaultStats is the degraded-mode accounting block of Stats.Faults.
type FaultStats = paragon.FaultStats

// NewFaultInjector builds a deterministic fault injector.
func NewFaultInjector(cfg FaultConfig) *FaultInjector { return faultsim.NewInjector(cfg) }

// ---- Migration ----

// MigrationPlan schedules vertex movement between two decompositions.
type MigrationPlan = migrate.Plan

// NewMigrationPlan diffs two decompositions.
func NewMigrationPlan(old, now *Partitioning) (*MigrationPlan, error) {
	return migrate.NewPlan(old, now)
}

// MigrationStore is one rank's local vertex store.
type MigrationStore = migrate.Store

// MigrationStats reports what one migration execution did.
type MigrationStats = migrate.Stats

// MigrationAppContext carries per-vertex application state across a
// migration via save/restore hooks (§5's BFS-distance example).
type MigrationAppContext = migrate.AppContext

// ErrMigrationAborted marks a migration killed by the fault fabric;
// every rank was rolled back to its pre-plan state. Detect with
// errors.Is.
var ErrMigrationAborted = migrate.ErrAborted

// BuildMigrationStores materializes per-rank stores from a graph and its
// current decomposition.
func BuildMigrationStores(g *Graph, p *Partitioning) []*MigrationStore {
	return migrate.BuildStores(g, p)
}

// ExecuteMigration runs a migration plan over the stores, transactional
// against faults: it either commits fully or rolls back fully. A nil
// fabric runs fault-free.
func ExecuteMigration(stores []*MigrationStore, plan *MigrationPlan, ctx MigrationAppContext, fab *FaultInjector) (MigrationStats, error) {
	if fab == nil {
		return migrate.Execute(stores, plan, ctx)
	}
	return migrate.ExecuteWith(stores, plan, ctx, fab)
}

// VerifyMigration checks that the stores exactly realize a decomposition.
func VerifyMigration(stores []*MigrationStore, g *Graph, now *Partitioning) error {
	return migrate.Verify(stores, g, now)
}

// ---- Partition directory (serving layer) ----

// PartitionDirectory is the epoch-versioned serving layer: lock-free
// vertex→rank lookups against immutable epoch snapshots, crash-safe
// atomic epoch flips through a fault-injectable journal, and
// deterministic journal recovery. Wire one into Config.Directory to have
// Refine publish each committed round as an epoch.
type PartitionDirectory = dir.Directory

// DirectoryOptions tunes a PartitionDirectory (shard geometry, fault
// fabric, virtual clock, observability).
type DirectoryOptions = dir.Options

// DirectorySnapshot is one immutable committed epoch of a directory.
type DirectorySnapshot = dir.Snapshot

// DirectoryResult is a pinned-epoch lookup answer, carrying the
// stale-read forwarding hint.
type DirectoryResult = dir.Result

// ErrDirectoryPublishFailed marks an epoch publish abandoned by the
// fault layer; the previous epoch stayed live. Detect with errors.Is.
var ErrDirectoryPublishFailed = dir.ErrPublishFailed

// ErrDirectoryFutureEpoch marks a lookup pinned past the live epoch.
var ErrDirectoryFutureEpoch = dir.ErrFutureEpoch

// ErrDirectoryJournalCorrupt marks a journal whose damage exceeds the
// torn-tail model recovery absorbs.
var ErrDirectoryJournalCorrupt = dir.ErrJournalCorrupt

// NewPartitionDirectory builds a directory serving epoch 0 from a full
// assignment vector (values in [0, k)).
func NewPartitionDirectory(assign []int32, k int32, opts DirectoryOptions) (*PartitionDirectory, error) {
	return dir.New(assign, k, opts)
}

// RecoverPartitionDirectory rebuilds a directory from journal bytes,
// replaying to the last committed epoch and discarding any torn tail.
func RecoverPartitionDirectory(journal []byte, opts DirectoryOptions) (*PartitionDirectory, error) {
	return dir.Recover(journal, opts)
}

// ---- Streaming sessions (the paragond core) ----

// Session is the streaming-ingest repartitioning state machine behind
// cmd/paragond: it absorbs seeded churn batches into a live dynamic
// graph, maintains the Eq. 2–4 score incrementally, launches incremental
// refinement epochs when a TriggerPolicy fires, and publishes committed
// epochs atomically through an embedded PartitionDirectory. The whole
// (seed, schedule) run replays bit-identically at every worker count.
type Session = session.Session

// SessionConfig tunes a Session (capacity, trigger, epoch pacing,
// refinement config, fault injection, observability).
type SessionConfig = session.Config

// SessionStats is a session's cumulative accounting.
type SessionStats = session.Stats

// SessionBatchStats reports what one ingested batch did.
type SessionBatchStats = session.BatchStats

// NewSession opens a session over a base graph and its initial
// decomposition.
func NewSession(g0 *Graph, p0 *Partitioning, cfg SessionConfig) (*Session, error) {
	return session.New(g0, p0, cfg)
}

// ChurnSource is the adjacency view workload generation draws endpoints
// from; Session.Source exposes the live graph as one.
type ChurnSource = dyn.Source

// EdgeOp is one churn event (edge addition or removal).
type EdgeOp = dyn.EdgeOp

// ChurnBatch is one seeded workload step: edge churn plus vertex
// arrivals.
type ChurnBatch = dyn.Batch

// VertexArrival is one new vertex with its initial neighbor set.
type VertexArrival = dyn.Arrival

// Workload deterministically generates the churn-batch schedule a
// session ingests; same seed and config, same batches forever.
type Workload = dyn.Workload

// WorkloadConfig shapes each generated batch.
type WorkloadConfig = dyn.WorkloadConfig

// NewWorkload returns a seeded workload generator.
func NewWorkload(seed int64, cfg WorkloadConfig) *Workload {
	return dyn.NewWorkload(seed, cfg)
}

// TriggerPolicy decides when accumulated dynamism justifies a
// refinement epoch (Eq. 4 skew, churned-edge fraction, Eq. 2
// staleness).
type TriggerPolicy = dyn.TriggerPolicy

// TriggerDecision explains one trigger evaluation.
type TriggerDecision = dyn.Decision

// DefaultTrigger returns the default trigger policy.
func DefaultTrigger() TriggerPolicy { return dyn.DefaultTrigger() }

// PlaceRule selects the single-vertex arrival placement heuristic.
type PlaceRule = stream.PlaceRule

// Arrival placement rules.
const (
	PlaceDG     = stream.PlaceDG
	PlaceLDG    = stream.PlaceLDG
	PlaceFennel = stream.PlaceFennel
)

// ParsePlaceRule parses "dg", "ldg", or "fennel".
func ParsePlaceRule(s string) (PlaceRule, error) { return stream.ParsePlaceRule(s) }

// RandomChurn generates adds+removes seeded edge events against g.
func RandomChurn(g *Graph, adds, removes int, seed int64) []EdgeOp {
	return dyn.RandomChurn(g, adds, removes, seed)
}

// ---- Execution simulator ----

// Engine executes vertex programs on a modeled cluster.
type Engine = bsp.Engine

// EngineOptions tunes the simulator's cost model.
type EngineOptions = bsp.Options

// RunResult is the outcome of a simulated job (JET, volume breakdown).
type RunResult = bsp.Result

// NewEngine binds a graph, a decomposition, and a cluster (partition i
// runs on core i).
func NewEngine(g *Graph, p *Partitioning, cl *Cluster, opts EngineOptions) (*Engine, error) {
	return bsp.NewEngine(g, p, cl, opts)
}

// BFS runs breadth-first search from src on the engine.
func BFS(e *Engine, g *Graph, src int32) ([]int64, RunResult, error) {
	return apps.BFS(e, g, src)
}

// SSSP runs single-source shortest path from src on the engine.
func SSSP(e *Engine, g *Graph, src int32) ([]int64, RunResult, error) {
	return apps.SSSP(e, g, src)
}

// PageRank runs iters damped PageRank rounds on the engine.
func PageRank(e *Engine, g *Graph, iters int) ([]int64, RunResult, error) {
	return apps.PageRank(e, g, iters)
}
