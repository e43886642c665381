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
	"paragon/internal/dir"
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
	// BadMoveLimit bounds non-improving moves per pair (default 64).
	BadMoveLimit int
	// NodeOf optionally maps each server (partition index) to its
	// compute node, enabling Eq. 10's σ(s) group-server spreading
	// penalty and the region-exchange accounting. Nil treats every
	// server as its own node.
	NodeOf []int
	// RegionSize overrides the location-exchange region size of §5
	// (default min(2^26, |V|)).
	RegionSize int64
	// FaultRate, together with FaultSeed, installs the deterministic
	// fault injector of internal/faultsim: every fault point (group
	// crash, straggler delay, exchange-reduce drop) fires independently
	// with this probability, hashed from FaultSeed so identical
	// (FaultSeed, FaultRate) runs see identical fault schedules. Zero
	// disables the fault layer entirely.
	FaultRate float64
	// FaultSeed seeds the fault schedule (independent of Seed, so the
	// same refinement can be swept across fault schedules).
	FaultSeed int64
	// Fabric overrides FaultRate/FaultSeed with an explicit fault
	// fabric — a scripted schedule being replayed, or a zero-fault
	// injector when measuring instrumentation overhead. With a nil
	// Fabric and FaultRate 0 the fault layer is a true no-op.
	Fabric faultsim.Fabric
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
	// selected by partition.Score's total order, the top CombineTop
	// overlaid by the combine operator. Consumed only by the portfolio
	// driver — plain Refine ignores it.
	Portfolio PortfolioConfig
	// Directory, when non-nil, is the epoch-versioned serving layer
	// (internal/dir): after each committed refinement round the driver
	// publishes the master assignment as one whole epoch, so concurrent
	// lookups follow the refinement without ever observing a torn
	// mapping. A publish killed by the directory's own fault fabric is
	// counted in Faults.PublishAborts and the previous epoch stays live —
	// the next round's publish diffs against the directory's snapshot and
	// catches it up. It must serve g's vertex count over p.K ranks
	// (checked on entry). Nil skips the serving layer entirely.
	Directory *dir.Directory
}

// DefaultConfig returns the paper's evaluation defaults: drp = 8, eight
// shuffle rounds, k-hop 0, and ARAGON's α = 10, 2% imbalance and bad-move
// limit (aragon.Config.WithDefaults, the one place they are written).
func DefaultConfig() Config {
	a := aragon.Config{}.WithDefaults()
	return Config{DRP: 8, Shuffles: 8, Alpha: a.Alpha, MaxImbalance: a.MaxImbalance, BadMoveLimit: a.BadMoveLimit}
}

// PortfolioConfig tunes the portfolio driver. It lives here (not in
// internal/portfolio, which imports this package) so Config can embed it.
type PortfolioConfig struct {
	// Size is the number of portfolio members P: independent seeded
	// refinements of the same input, raced to completion with no
	// cross-member barriers. 0 or negative picks 4.
	Size int
	// CombineTop is how many of the best members the combine operator
	// overlays; the overlay is currently pairwise, so any value >= 2
	// combines the top two and values < 2 disable combining. Default 2.
	CombineTop int
}

// WithDefaults returns the config with the paper's defaults filled in
// and DRP clamped for k partitions — the normalization Refine applies on
// entry, exported for the portfolio driver and the session, which must
// see the same effective settings their refinements run under.
func (c Config) WithDefaults(k int32) Config {
	if c.Portfolio.Size <= 0 {
		c.Portfolio.Size = 4
	}
	if c.Portfolio.CombineTop == 0 {
		c.Portfolio.CombineTop = 2
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
	c.Alpha, c.MaxImbalance, c.BadMoveLimit = a.Alpha, a.MaxImbalance, a.BadMoveLimit
	return c
}

// FaultFabric resolves the fault fabric a run under this config
// consults: an explicit Fabric wins, FaultRate > 0 builds the seeded
// injector, otherwise nil — the fault layer is a true no-op. An injector,
// either way, reports its fired-fault counters to Metrics.
func (c Config) FaultFabric() faultsim.Fabric {
	fab := c.Fabric
	if fab == nil && c.FaultRate > 0 {
		fab = faultsim.NewInjector(faultsim.Config{Seed: c.FaultSeed, Rate: c.FaultRate})
	}
	if in, ok := fab.(*faultsim.Injector); ok && c.Metrics != nil {
		in.Observe(c.Metrics)
	}
	return fab
}

// AragonConfig projects the pairwise-refiner settings out of the driver
// config — shared by the scheduler's workers and the portfolio members,
// so both refine under identical Eq. 5 gain rules.
func (c Config) AragonConfig() aragon.Config {
	return aragon.Config{
		Alpha:        c.Alpha,
		MaxImbalance: c.MaxImbalance,
		BadMoveLimit: c.BadMoveLimit,
	}
}

// Stats reports what one Refine call did, including the simulated
// communication volumes that Figures 15–16 track.
type Stats struct {
	Master       int32     // server selected by Eq. 11
	DRP          int       // effective degree of parallelism
	Rounds       int       // refinement rounds executed (1 + shuffles unless an exchange abort ended shuffling)
	GroupServers [][]int32 // per round, the server chosen for each group

	PairsRefined int       // partition pairs refined across all rounds
	Moves        int       // vertex moves kept
	Gain         float64   // total Eq. 5 gain realized
	RoundGains   []float64 // gain realized per refinement round

	BoundaryShipped       int64 // vertices shipped to group servers (all rounds)
	ShippedEdgeVolume     int64 // half-edges accompanying shipped vertices
	LocationExchangeBytes int64 // shuffle location-exchange traffic
	ExchangeRegions       int   // chunked exchange rounds per shuffle

	MigratedVertices int64         // vertices whose final owner changed
	MigrationCost    float64       // Eq. 3 against the input decomposition
	DirectoryEpochs  int           // epochs published to Config.Directory (one per committed round)
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
	PublishAborts   int   // directory epoch publishes killed by the directory's fault layer
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
// publishEpoch, exchangeRegions, and sweepMigration after the last round —
// each called from exactly one place, so a phase is timed by wrapping one
// call. The phases that work the scheduler's shared state live beside it in
// schedule.go. st is the one record of the run: phases write it, trace
// events report it, and finish publishes the metrics from it.
type driver struct {
	g   *graph.Graph
	p   *partition.Partitioning
	ix  *partition.Index
	sc  *scheduler
	c   [][]float64
	cfg Config // defaults applied
	fab faultsim.Fabric
	pol faultsim.Policy
	clk *faultsim.Clock
	tr  *obs.Tracer
	mx  refineMetrics
	rng *rand.Rand

	groups     [][]int32 // the current grouping, reshuffled after every exchange
	shuffle    []int     // ShuffleGroupsScratch's permutation buffer
	ps         []int64   // pooled incident-edge sums, reused per round
	regionSize int64
	st         Stats
}

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
	if err := partition.CheckCosts(c, p.K); err != nil {
		return Stats{}, fmt.Errorf("paragon: %w", err)
	}
	if cfg.NodeOf != nil && int32(len(cfg.NodeOf)) < p.K {
		return Stats{}, fmt.Errorf("paragon: NodeOf has %d entries for k=%d", len(cfg.NodeOf), p.K)
	}
	if cfg.Directory != nil {
		// Checked here, not by the first publish: that one runs after round
		// 0 has already committed its moves into p.
		if s := cfg.Directory.Current(); s.NumVertices() != g.NumVertices() || s.K() != p.K {
			return Stats{}, fmt.Errorf("paragon: Directory serves %d vertices over %d ranks, the decomposition has %d over %d",
				s.NumVertices(), s.K(), g.NumVertices(), p.K)
		}
	}
	cfg = cfg.WithDefaults(p.K)
	st := Stats{DRP: cfg.DRP, Master: selectMaster(p.K, c)}
	if p.K < 2 {
		// Nothing to refine, so nothing to observe: no event, no metric.
		//lint:ignore wallclock Stats.RefinementTime bookkeeping at the driver boundary
		st.RefinementTime = time.Since(start)
		return st, nil
	}
	d := &driver{g: g, p: p, ix: ix, c: c, cfg: cfg, tr: cfg.Trace, st: st}
	if err := d.open(); err != nil {
		return d.finish(start, fmt.Errorf("paragon: %w", err))
	}
	defer d.sc.Close()
	for round := int32(0); ; round++ {
		d.tr.Emit(obs.Event{Kind: obs.KindRoundStart, Round: round, N: int64(len(d.groups))})
		d.repairBoundary()
		servers := d.selectServers()
		d.accountShipping(round, servers)
		roundTicks := d.resolveFates(round)
		d.refineWaves(round, roundTicks)
		if err := d.publishEpoch(round); err != nil {
			return d.finish(start, err)
		}
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
// round — the index and the pair-level scheduler.
func (d *driver) open() error {
	g, p, cfg := d.g, d.p, d.cfg
	d.rng = rand.New(rand.NewSource(cfg.Seed))
	n := int64(g.NumVertices())
	d.regionSize = cfg.RegionSize
	if d.regionSize <= 0 {
		d.regionSize = int64(1) << 26
	}
	if d.regionSize > n && n > 0 {
		d.regionSize = n
	}
	d.st.ExchangeRegions = int((n + d.regionSize - 1) / d.regionSize)

	// The fault layer: a nil fabric is the fast path with zero overhead; an
	// installed one is consulted at each fault point. Decisions are pure
	// hashes of (seed, coordinates), so no phase loses determinism by
	// asking.
	d.fab = cfg.FaultFabric()
	d.pol = faultsim.DefaultPolicy()
	d.clk = faultsim.NewClock()
	// Observability (DESIGN.md §13): a nil tracer or registry is a no-op at
	// every call. Phases emit from this coordinator goroutine; the per-pair
	// worker events are staged per worker and committed in task order at
	// each wave barrier (schedule.go).
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
	orig := append([]int32(nil), p.Assign...)
	var err error
	d.sc, err = newScheduler(g, d.ix, d.c, orig, partition.BalanceBound(g, p.K, cfg.MaxImbalance), cfg)
	return err
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

// resolveFates fills sc.live with the groups that survive the round and
// returns the round's length in virtual ticks. Fault fates are resolved up
// front: the injector's decisions are pure hashes of (seed, round, group),
// so a crashed or dropped group is known before any pair runs and none of
// its pairs is ever scheduled — equivalent to the real system discarding a
// degraded server's entire round, wherever its pairs would have sat in the
// tournament.
func (d *driver) resolveFates(round int32) (roundTicks int64) {
	live := d.sc.live[:0]
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
			if dur > d.pol.RoundTimeout {
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
	d.sc.live = live
	if degraded := len(d.groups) - len(live); degraded > 0 {
		d.st.Faults.DegradedGroups += degraded
		roundTicks = d.pol.RoundTimeout
	}
	return roundTicks
}

// publishEpoch makes the committed round one whole epoch of the serving
// layer. The directory runs its own fault fabric; an aborted flip leaves
// the previous epoch live, and the diff of the next round's publish
// resynchronizes it.
func (d *driver) publishEpoch(round int32) error {
	if d.cfg.Directory == nil {
		return nil
	}
	switch _, err := d.cfg.Directory.PublishAssign(d.p.Assign); {
	case err == nil:
		d.st.DirectoryEpochs++
	case errors.Is(err, dir.ErrPublishFailed):
		d.st.Faults.PublishAborts++
	default:
		return fmt.Errorf("paragon: directory publish after round %d: %w", round, err)
	}
	return nil
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
		bytes, retries, ok := faultsim.Deliver(d.fab, d.pol, d.clk, int(round), region, (hi-lo)*4,
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
