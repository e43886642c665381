// Package paragon implements PARAGON, the parallel architecture-aware
// graph partition refinement algorithm of Zheng et al. (EDBT 2016) — the
// paper's core contribution.
//
// PARAGON parallelizes the serial ARAGON refiner by splitting the n
// partitions of a decomposition into drp groups, refining every partition
// pair inside each group concurrently on a dedicated group server, and
// recovering the quality lost to grouping with rounds of shuffle
// refinement that exchange decomposition changes and swap partitions
// between groups (Algorithm 1). It is itself architecture-aware: the
// master node is chosen to minimize auxiliary traffic (Eq. 11) and group
// servers are chosen to minimize the cost of shipping their group's
// boundary vertices (Eq. 10), with a penalty that spreads group servers
// across compute nodes. Communication volume is reduced by shipping only
// vertices within k hops of a partition boundary (k = 0 by default).
//
// Shared-resource contention (§6) enters through the cost matrix: build
// it with topology.(*Cluster).PartitionCostMatrix(k, λ), which applies
// the Eq. 12 intra-node penalty before refinement begins.
package paragon

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"paragon/internal/aragon"
	"paragon/internal/faultsim"
	"paragon/internal/graph"
	"paragon/internal/obs"
	"paragon/internal/partition"
	"paragon/internal/topology"
)

// Config tunes PARAGON. The zero value picks the paper's defaults.
type Config struct {
	// DRP is the degree of refinement parallelism: the number of
	// partition groups refined concurrently. 1 degenerates to serial
	// ARAGON; the maximum useful value is K/2 (each group needs at least
	// two partitions). Values outside [1, K/2] are clamped. Default 8.
	DRP int
	// Shuffles is the number of shuffle-refinement rounds after the
	// initial round. Zero means no shuffle refinement; DefaultConfig
	// uses 8, the paper's microbenchmark setting.
	Shuffles int
	// Workers bounds the pair-level worker pool: each tournament wave's
	// pairs (DESIGN.md §12) execute on this many workers. The result is
	// bit-identical for every value — Workers changes wall clock and
	// memory placement, never the refinement. Zero or negative picks
	// runtime.GOMAXPROCS(0).
	Workers int
	// KHop is the boundary-expansion radius for the communication-volume
	// reduction of §5: only vertices within KHop hops of a partition
	// boundary are shipped to (and movable by) group servers. Default 0
	// (boundary vertices only), the paper's default.
	KHop int
	// Alpha is the communication-vs-migration weight of Eq. 2 (default
	// 10, the paper's evaluation setting).
	Alpha float64
	// MaxImbalance is the allowed skew tolerance (default 0.02).
	MaxImbalance float64
	// Seed drives grouping and shuffling; a fixed seed makes the whole
	// refinement deterministic.
	Seed int64
	// NodeOf optionally maps each server (partition index) to its
	// compute node, enabling Eq. 10's σ(s) group-server spreading
	// penalty and the region-exchange accounting. Nil treats every
	// server as its own node.
	NodeOf []int
	// Fabric installs a deterministic fault injector (internal/faultsim):
	// group crashes, straggler delays and exchange-reduce drops fire at
	// its fault points — seeded, or a scripted schedule being replayed. An Injector keeps counters and a realized
	// log, so give each Refine call its own. Nil makes the fault layer a
	// true no-op; a zero-rate injector is not one — the driver still
	// advances the virtual clock per group.
	Fabric *faultsim.Injector
	// Trace, when non-nil, receives the structured refinement event
	// stream (round/wave/pair/fault/exchange events, DESIGN.md §13).
	// Events are stamped with the virtual tick clock and a monotonic
	// sequence number; the stream is bit-identical for every Workers
	// value. Nil disables tracing at zero cost.
	Trace *obs.Tracer
	// Metrics, when non-nil, is populated with the per-phase counters,
	// gauges, and fixed-bucket histograms of the refinement (refine_*,
	// ship_*, exchange_*, fault_*, migrate_*). Like the trace, the final
	// registry contents are identical for every Workers value. Nil
	// disables the metrics layer at zero cost.
	Metrics *obs.Registry
	// Portfolio sizes the seeded-ensemble layer (internal/portfolio):
	// Size independent refinements raced on the worker pool, the best
	// selected by partition.Score's total order, the two best overlaid by
	// the combine operator. Consumed only by the portfolio driver — plain
	// Refine ignores it.
	Portfolio PortfolioConfig
}

// DefaultConfig returns the paper's evaluation defaults: drp = 8, eight
// shuffle rounds, k-hop 0, and ARAGON's α = 10 and 2% imbalance
// (aragon.Config.WithDefaults, the one place they are written).
func DefaultConfig() Config {
	a := aragon.Config{}.WithDefaults()
	return Config{DRP: 8, Shuffles: 8, Alpha: a.Alpha, MaxImbalance: a.MaxImbalance}
}

// PortfolioConfig tunes the portfolio driver. It lives here (not in
// internal/portfolio, which imports this package) so Config can embed it.
type PortfolioConfig struct {
	// Size is the number of portfolio members P: independent seeded
	// refinements of the same input, raced to completion with no
	// cross-member barriers. 0 or negative picks 4.
	Size int
}

// WithDefaults returns the config with the paper's defaults filled in
// and DRP clamped for k partitions — the normalization Refine applies on
// entry, exported for the portfolio driver and the session, which must
// see the same effective settings their refinements run under.
func (c Config) WithDefaults(k int32) Config {
	if c.Portfolio.Size <= 0 {
		c.Portfolio.Size = 4
	}
	if c.DRP == 0 {
		c.DRP = 8
	}
	maxDRP := int(k) / 2
	if maxDRP < 1 {
		maxDRP = 1
	}
	if c.DRP > maxDRP {
		c.DRP = maxDRP
	}
	if c.DRP < 1 {
		c.DRP = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Shuffles < 0 {
		c.Shuffles = 0
	}
	a := c.AragonConfig().WithDefaults()
	c.Alpha, c.MaxImbalance = a.Alpha, a.MaxImbalance
	return c
}

// AragonConfig projects the pairwise-refiner settings out of the driver
// config — shared by the scheduler's workers and the portfolio members,
// so both refine under identical Eq. 5 gain rules.
func (c Config) AragonConfig() aragon.Config {
	return aragon.Config{Alpha: c.Alpha, MaxImbalance: c.MaxImbalance}
}

// Stats reports what one Refine call did, including the simulated
// communication volumes that Figures 15–16 track.
type Stats struct {
	Master       int32     // server selected by Eq. 11
	DRP          int       // effective degree of parallelism
	Rounds       int       // refinement rounds executed (1 + shuffles unless an exchange abort ended shuffling)
	GroupServers [][]int32 // per round, the server chosen for each group

	PairsRefined int // partition pairs refined across all rounds
	Moves        int // vertex moves kept
	// Gain is the total Eq. 5 gain the pairs claimed, each priced against
	// its wave-start view of foreign partitions; RoundGains is the same
	// sum per refinement round. Under a uniform matrix the claim equals
	// the realized drop of Comm + Mig; under a general one another pair of
	// the same wave may move those foreign vertices, and the two differ
	// (DESIGN.md §10).
	Gain       float64
	RoundGains []float64

	BoundaryShipped       int64 // vertices shipped to group servers (all rounds)
	ShippedEdgeVolume     int64 // half-edges accompanying shipped vertices
	LocationExchangeBytes int64 // shuffle location-exchange traffic
	ExchangeRegions       int   // chunked exchange rounds per shuffle

	MigratedVertices int64         // vertices whose final owner changed
	MigrationCost    float64       // Eq. 3 against the input decomposition
	RefinementTime   time.Duration // wall clock of the whole refinement

	Faults FaultStats // degraded-mode accounting (all zero without a fault fabric)
}

// FaultStats accounts what the fault fabric did to one Refine and how
// the recovery machinery answered. Refinement is best-effort, so every
// entry here costs quality, never validity: a degraded group's moves are
// discarded and the round commits with the survivors; an exchange abort
// ends shuffling early with the rounds already committed.
type FaultStats struct {
	CrashedGroups   int   // group servers that crashed; their rounds' moves discarded
	StragglerDrops  int   // groups discarded because their delay passed the round timeout
	DegradedGroups  int   // total discarded group outcomes (crashes + straggler drops)
	ExchangeRetries int   // region reduces retransmitted after a drop
	ExchangeAborts  int   // reduces abandoned after the retry budget (ends shuffling)
	BackoffTicks    int64 // virtual ticks spent backing off dropped reduces
	VirtualTicks    int64 // total virtual time: per-round barriers plus backoff
}

// Refine improves the decomposition p of g in place against the relative
// cost matrix c (k×k, as produced by topology.PartitionCostMatrix) and
// returns statistics. The input decomposition is used as the migration
// reference of Eq. 9.
func Refine(g *graph.Graph, p *partition.Partitioning, c [][]float64, cfg Config) (Stats, error) {
	return refine(g, p, c, cfg, nil)
}

// RefineIndexed is Refine on a caller-maintained incremental index: the
// O(|V| + |E|) BuildIndex at the top of every call is skipped and ix is
// used (and kept consistent) instead. This is the streaming session's
// epoch entry point — across epochs it pays only the O(Σ deg(dirty))
// Index.Retarget for the churn since the last epoch, never a full
// rebuild. ix must have been built over exactly this (g, p): every wave
// barrier replays the kept moves through it, so on return ix again
// matches the refined p move for move.
func RefineIndexed(g *graph.Graph, p *partition.Partitioning, c [][]float64, cfg Config, ix *partition.Index) (Stats, error) {
	if ix == nil {
		return Stats{}, errors.New("paragon: RefineIndexed requires a non-nil index")
	}
	if ix.Partitioning() != p {
		return Stats{}, errors.New("paragon: index was built over a different partitioning")
	}
	if ix.Graph() != g {
		return Stats{}, errors.New("paragon: index targets a different graph snapshot (Retarget it first)")
	}
	return refine(g, p, c, cfg, ix)
}

// driver is one Refine call. Its methods are the rows of Algorithm 1 in
// loop order — repairBoundary, selectServers, accountShipping,
// resolveFates, refineWaves (with commitWave at every barrier),
// exchangeRegions, and sweepMigration after the last round —
// each called from exactly one place, so a phase is timed by wrapping one
// call. The phases that work the wave engine's state live in schedule.go.
// st is the one record of the run: phases write it, trace events report
// it, and finish publishes the metrics from it.
type driver struct {
	g   *graph.Graph
	p   *partition.Partitioning
	ix  *partition.Index
	eng WaveEngine // runs the tournament waves; its workers live until Close
	c   *partition.Costs
	cfg Config // defaults applied
	fab *faultsim.Injector
	clk *faultsim.Clock
	tr  *obs.Tracer
	mx  refineMetrics
	rng *rand.Rand

	groups     [][]int32 // the current grouping, reshuffled after every exchange
	live       []int32   // surviving group indices this round, ascending
	shuffle    []int     // ShuffleGroupsScratch's permutation buffer
	ps         []int64   // pooled incident-edge sums, reused per round
	regionSize int64
	gain       int64 // Stats.Gain on the objective grid
	mig        int64 // Stats.MigrationCost on the grid, before the α shift
	st         Stats
}

// maxRegionSize is the location-exchange region of §5, 2^26 vertex ids; a
// smaller graph exchanges in one region of |V|. Tests lower it to reach
// multi-region exchanges on graphs they can hold.
var maxRegionSize int64 = 1 << 26

func refine(g *graph.Graph, p *partition.Partitioning, c [][]float64, cfg Config, ix *partition.Index) (Stats, error) {
	// Refine is the driver boundary: it orchestrates the group servers
	// and reports Stats.RefinementTime, but the clock never influences
	// refinement decisions — the inner kernels (aragon.Refiner) are
	// clock-free and paragonlint keeps them that way.
	//lint:ignore wallclock whole-run stopwatch for Stats.RefinementTime; never read by refinement decisions
	start := time.Now()
	if err := p.Validate(g); err != nil {
		return Stats{}, fmt.Errorf("paragon: %w", err)
	}
	cs, err := partition.CheckCosts(c, p.K)
	if err != nil {
		return Stats{}, fmt.Errorf("paragon: %w", err)
	}
	if cfg.NodeOf != nil && int32(len(cfg.NodeOf)) < p.K {
		return Stats{}, fmt.Errorf("paragon: NodeOf has %d entries for k=%d", len(cfg.NodeOf), p.K)
	}
	cfg = cfg.WithDefaults(p.K)
	if err := partition.CheckObjective(g, cs, cfg.Alpha); err != nil {
		return Stats{}, fmt.Errorf("paragon: %w", err)
	}
	st := Stats{DRP: cfg.DRP, Master: selectMaster(cs)}
	if p.K < 2 {
		// Nothing to refine, so nothing to observe: no event, no metric.
		//lint:ignore wallclock Stats.RefinementTime bookkeeping at the driver boundary
		st.RefinementTime = time.Since(start)
		return st, nil
	}
	d := &driver{g: g, p: p, ix: ix, c: cs, cfg: cfg, tr: cfg.Trace, st: st}
	if err := d.open(); err != nil {
		return d.finish(start, fmt.Errorf("paragon: %w", err))
	}
	defer d.eng.Close()
	for round := int32(0); ; round++ {
		d.tr.Emit(obs.Event{Kind: obs.KindRoundStart, Round: round, N: int64(len(d.groups))})
		d.repairBoundary()
		servers := d.selectServers()
		d.accountShipping(round, servers)
		roundTicks := d.resolveFates(round)
		d.refineWaves(round, roundTicks)
		if int(round) == cfg.Shuffles || !d.exchangeRegions(round) {
			break
		}
		d.shuffle = ShuffleGroupsScratch(d.groups, d.rng, int(round), d.shuffle)
	}
	d.sweepMigration()
	d.tr.Emit(obs.Event{Kind: obs.KindRefineEnd, Round: -1, N: int64(d.st.Moves), X: d.st.Gain})
	return d.finish(start, nil)
}

// open builds what every round shares: the seeded grouping, the fault
// fabric, and the scratch that is allocated once and reused by every
// round — the index and the wave engine.
func (d *driver) open() error {
	g, p, cfg := d.g, d.p, d.cfg
	d.rng = rand.New(rand.NewSource(cfg.Seed))
	n := int64(g.NumVertices())
	d.regionSize = maxRegionSize
	if d.regionSize > n && n > 0 {
		d.regionSize = n
	}
	d.st.ExchangeRegions = int((n + d.regionSize - 1) / d.regionSize)

	// The fault layer: a nil injector is the fast path with zero overhead;
	// an installed one is consulted at each fault point. Decisions are pure
	// hashes of (seed, coordinates), so no phase loses determinism by
	// asking.
	cfg.Fabric.Observe(cfg.Metrics)
	d.fab = cfg.Fabric
	d.clk = faultsim.NewClock()
	// Observability (DESIGN.md §13): a nil tracer or registry is a no-op at
	// every call. Only this coordinator goroutine emits; the per-pair events
	// come from the task-indexed results at each wave barrier (schedule.go).
	d.mx = newRefineMetrics(cfg.Metrics)
	d.tr.SetClock(d.clk.Now)
	d.tr.Emit(obs.Event{Kind: obs.KindRefineStart, Round: -1, A: d.st.Master, B: int32(cfg.DRP), N: int64(p.K)})

	d.groups = randomGrouping(p.K, cfg.DRP, d.rng)
	// One incrementally maintained index serves every round: each wave
	// barrier applies the wave's kept moves through it, so boundary
	// counts, bucket membership, and incident-edge sums stay current
	// without per-round full-graph rebuilds or per-pair full-graph scans.
	// RefineIndexed callers supply a live index and skip the build.
	if d.ix == nil {
		d.ix = partition.BuildIndex(g, p)
	}
	// Empty: repairBoundary materializes the movable vertices, round by
	// round. A table too large for its offsets is still refused here.
	profile, err := partition.NewNeighborProfile(g, p.K)
	if err != nil {
		return err
	}
	orig := append([]int32(nil), p.Assign...)
	d.eng.Open(g, d.ix, d.c, orig, partition.BalanceBound(g, p.K, cfg.MaxImbalance), cfg, profile)
	return nil
}

// finish is the way out of every Refine that got past validation with
// something to refine: the Stats-mirroring metrics are written here, once,
// from Stats (observe.go).
func (d *driver) finish(start time.Time, err error) (Stats, error) {
	d.st.Faults.VirtualTicks = d.clk.Now()
	publishStats(d.cfg.Metrics, &d.st)
	//lint:ignore wallclock Stats.RefinementTime bookkeeping at the driver boundary
	d.st.RefinementTime = time.Since(start)
	return d.st, err
}

// selectServers picks each group's server (Eq. 10) from the maintained
// incident-edge sums — no rescan.
func (d *driver) selectServers() []int32 {
	d.ps = d.ix.AppendIncidentEdges(d.ps[:0])
	servers := SelectGroupServers(d.groups, d.ps, d.c, d.cfg.NodeOf, d.cfg.DRP)
	d.st.GroupServers = append(d.st.GroupServers, servers)
	return servers
}

// resolveFates fills d.live with the groups that survive the round and
// returns the round's length in virtual ticks. Fault fates are resolved up
// front: the injector's decisions are pure hashes of (seed, round, group),
// so a crashed or dropped group is known before any pair runs and none of
// its pairs is ever scheduled — equivalent to the real system discarding a
// degraded server's entire round, wherever its pairs would have sat in the
// tournament.
func (d *driver) resolveFates(round int32) (roundTicks int64) {
	live := d.live[:0]
	for gi := range d.groups {
		if d.fab != nil {
			if d.fab.CrashGroup(int(round), gi) {
				// A crashed server never answers; the master burns the
				// whole round timeout discovering that.
				d.st.Faults.CrashedGroups++
				d.tr.Emit(obs.Event{Kind: obs.KindGroupCrashed, Round: round, A: int32(gi)})
				continue
			}
			dur := 1 + d.fab.GroupDelay(int(round), gi)
			if dur > faultsim.RoundTimeout {
				// Straggler past the timeout: its moves arrive after the
				// round committed and are discarded.
				d.st.Faults.StragglerDrops++
				d.tr.Emit(obs.Event{Kind: obs.KindGroupStraggler, Round: round, A: int32(gi), N: dur})
				continue
			}
			if dur > roundTicks {
				roundTicks = dur
			}
		}
		live = append(live, int32(gi))
	}
	d.live = live
	if degraded := len(d.groups) - len(live); degraded > 0 {
		d.st.Faults.DegradedGroups += degraded
		roundTicks = faultsim.RoundTimeout
	}
	return roundTicks
}

// exchangeRegions is the chunked location exchange of §5: every group
// server learns the up-to-date location of all vertices, region by region
// — O(|V|) traffic per shuffle (4 bytes per entry). Under a fault fabric
// each region reduce may be dropped: it is retransmitted after a capped
// exponential backoff, and a region dropped beyond the retry budget ends
// shuffle refinement early (false) — the rounds already committed stand.
func (d *driver) exchangeRegions(round int32) bool {
	nV := int64(d.g.NumVertices())
	for region := 0; region < d.st.ExchangeRegions; region++ {
		lo := int64(region) * d.regionSize
		hi := lo + d.regionSize
		if hi > nV {
			hi = nV
		}
		bytes, retries, ok := faultsim.Deliver(d.fab, d.clk, int(round), region, (hi-lo)*4,
			func(attempt int, b int64) {
				d.st.Faults.ExchangeRetries++
				d.st.Faults.BackoffTicks += b
				d.tr.Emit(obs.Event{Kind: obs.KindRegionRetry, Round: round,
					A: int32(region), B: int32(attempt), N: b})
			})
		d.st.LocationExchangeBytes += bytes // lost attempts spent theirs too
		if !ok {
			d.st.Faults.ExchangeAborts++
			d.tr.Emit(obs.Event{Kind: obs.KindRegionAbort, Round: round,
				A: int32(region), B: int32(retries + 1)})
			return false
		}
		d.tr.Emit(obs.Event{Kind: obs.KindRegionSent, Round: round,
			A: int32(region), N: bytes, M: int64(retries)})
	}
	return true
}

// RefineUniform runs PARAGON with a uniform cost matrix — the
// UNIPARAGON baseline of §7.2 that assumes a homogeneous, contention-free
// environment.
func RefineUniform(g *graph.Graph, p *partition.Partitioning, cfg Config) (Stats, error) {
	return Refine(g, p, topology.UniformMatrix(int(p.K)), cfg)
}

// RefineSerial runs serial ARAGON: the pair kernel over every pair of the
// k-way decomposition, one after another, and returns the aggregate
// result. p is modified in place; its input assignment is the migration
// reference of Eq. 9.
func RefineSerial(g *graph.Graph, p *partition.Partitioning, c [][]float64, cfg aragon.Config) (aragon.Result, error) {
	if err := p.Validate(g); err != nil {
		return aragon.Result{}, fmt.Errorf("paragon: %w", err)
	}
	cs, err := partition.CheckCosts(c, p.K)
	if err != nil {
		return aragon.Result{}, fmt.Errorf("paragon: %w", err)
	}
	cfg = cfg.WithDefaults()
	if err := partition.CheckObjective(g, cs, cfg.Alpha); err != nil {
		return aragon.Result{}, fmt.Errorf("paragon: %w", err)
	}
	orig := append([]int32(nil), p.Assign...)
	return sweepSerial(g, partition.BuildIndex(g, p), cs, orig, cfg), nil
}

// sweepSerial is serial ARAGON on a one-worker wave engine over the master
// ix: every pair (i < j) in lexicographic order, one pair per wave, the
// movable mask repaired before the first wave and at every barrier, so
// each pair's candidates are the live boundary of its two partitions.
func sweepSerial(g *graph.Graph, ix *partition.Index, cs *partition.Costs, orig []int32, cfg aragon.Config) aragon.Result {
	k := ix.Partitioning().K
	var e WaveEngine
	e.Open(g, ix, cs, orig, partition.BalanceBound(g, k, cfg.MaxImbalance),
		Config{Workers: 1, Alpha: cfg.Alpha, MaxImbalance: cfg.MaxImbalance}, nil)
	defer e.Close()
	e.Waves = append(e.Waves, 0)
	for i := int32(0); i < k; i++ {
		for j := i + 1; j < k; j++ {
			e.Tasks = append(e.Tasks, [2]int32{i, j})
			e.Waves = append(e.Waves, int32(len(e.Tasks)))
		}
	}
	var total aragon.Result
	e.Repair()
	e.Run(func(_ int, ti, _ int32) {
		r := e.Results[ti]
		total.Moves += r.Moves
		total.Gain += r.Gain
		total.PairsSeen += r.PairsSeen
		e.Repair()
	})
	return total
}
