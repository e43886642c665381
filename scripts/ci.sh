#!/usr/bin/env bash
# Tier-1 gate: vet, the determinism linter, build, full test suite, then
# the race detector over the whole tree (DESIGN.md §8 requires
# `go test -race` to stay clean on everything that shares state across
# goroutines, and the determinism contract of DESIGN.md is enforced
# mechanically by paragonlint — any diagnostic fails the gate). Tests
# run with -shuffle=on so inter-test ordering dependencies can't hide;
# the race pass covers the fault-matrix sweep, exercising degraded-mode
# recovery under the detector.
set -euo pipefail
cd "$(dirname "$0")/.."

go vet ./...

# Determinism linter: built into a temp dir (never the repo root). The
# gate fails on any non-suppressed diagnostic, stale suppressions
# included — staleignore reports every //lint:ignore that no longer
# matches a live finding.
lintdir="$(mktemp -d)"
trap 'rm -rf "$lintdir"' EXIT
go build -o "$lintdir/paragonlint" ./cmd/paragonlint
"$lintdir/paragonlint" ./...

go build ./...
go test -shuffle=on ./...
go test -race -shuffle=on ./...

# Scheduler worker extremes: the paragon package under the race detector
# at GOMAXPROCS 1 and 4, so the pair-level waves run both fully serialized
# and genuinely interleaved (TestSchedulerDeterminism's contract holds at
# every worker count; -cpu also changes the Config.Workers default).
go test -race -cpu=1,4 ./internal/paragon/

# Observability layer under the race detector: the tracer's staged-commit
# path and the registry's atomic accumulators share state across the
# worker pool by design (DESIGN.md §13).
go test -race ./internal/obs/

# Serving layer under the race detector at GOMAXPROCS 1 and 4: the
# partition directory's lock-free lookups race epoch flips by design
# (DESIGN.md §16); the stress test asserts no torn (vertex, rank, epoch)
# triple at either extreme.
go test -race -cpu=1,4 ./internal/dir/

# Portfolio ensembles under the race detector at GOMAXPROCS 1 and 4:
# members race on the shared frozen graph with member-id-owned result
# slots, and the combine's waves on one shadow (DESIGN.md §17); -cpu also
# changes the Config.Workers default, so the determinism tests cover
# serialized and interleaved members and waves.
go test -race -cpu=1,4 ./internal/portfolio/

# Streaming sessions under the race detector at GOMAXPROCS 1 and 4: the
# ingest goroutine and the epoch refinement goroutine hand the index and
# snapshot back and forth through a channel by design (DESIGN.md §18);
# the replay tests assert bit-identity at both extremes, with faults on.
go test -race -cpu=1,4 ./internal/session/

# The two row-parallel fills under the race detector at GOMAXPROCS 1 and
# 4: graph.FromSymmetricRows (every CSR freeze) and
# partition.(*NeighborProfile).Materialize write disjoint row/segment
# regions of shared arrays from per-range goroutines (DESIGN.md §18);
# their tests assert the output is byte-identical at every worker count.
go test -race -cpu=1,4 ./internal/graph/ ./internal/partition/

# Fuzz steps, each for a fixed short time (the seed corpus alone runs in
# every `go test`). Minimizing a new input is capped at 100 runs, so the
# 5 s keep exploring instead of spending themselves on one shrink (the
# default cap is 60 s).
fuzz() { go test -run='^$' -fuzz="$1" -fuzztime=5s -fuzzminimizetime=100x "$2"; }
# The direct CSR fill against the Builder reference on fuzzed edge sets.
fuzz FuzzFromSymmetricRows ./internal/graph/
# The binary reader on fuzzed bytes: an error, or a graph that passes
# Validate and freezes through an overlay into the same bytes.
fuzz FuzzReadBinary ./internal/graph/
# The overlay's merging freeze on fuzzed edit schedules: after every
# freeze, the bytes of the sorted fill of the live rows.
fuzz FuzzOverlayFreeze ./internal/graph/
# A graph any reader accepts opens a session, takes a batch and drains,
# freezes into the graph its live rows describe, and refines to a valid
# decomposition.
fuzz FuzzSessionInput ./internal/session/
# The journal reader on fuzzed bytes: an error, or a directory whose
# snapshot re-packs to its own hash; a cut or bit-flipped journal
# recovers to the last epoch it committed before the damage.
fuzz FuzzJournal ./internal/dir/

# Obs determinism end to end: the same seeded faulty run at -workers 1
# and 8 must serialize byte-identical trace and metrics files — the
# observability half of the determinism contract, checked through the
# real CLI, not just the unit test.
obsdir="$(mktemp -d)"
trap 'rm -rf "$lintdir" "$obsdir"' EXIT
go build -o "$obsdir/paragon" ./cmd/paragon
go run ./cmd/gengraph -rmat -n 5000 -m 30000 -seed 13 -o "$obsdir/g.metis" > /dev/null
for w in 1 8; do
    "$obsdir/paragon" -in "$obsdir/g.metis" -k 24 -workers "$w" -seed 9 \
        -fault-rate 0.05 -fault-seed 3 \
        -trace "$obsdir/t$w.jsonl" -metrics "$obsdir/m$w.prom" > /dev/null
done
cmp "$obsdir/t1.jsonl" "$obsdir/t8.jsonl"
cmp "$obsdir/m1.prom" "$obsdir/m8.prom"
# The same -workers 1 run at GOMAXPROCS 1 and 4: the range-parallel fills
# (the CSR freeze, BuildIndex) size themselves by GOMAXPROCS, which the
# -workers flag does not vary.
for procs in 1 4; do
    GOMAXPROCS="$procs" "$obsdir/paragon" -in "$obsdir/g.metis" -k 24 -workers 1 -seed 9 \
        -fault-rate 0.05 -fault-seed 3 \
        -trace "$obsdir/tp$procs.jsonl" -metrics "$obsdir/mp$procs.prom" > /dev/null
    cmp "$obsdir/t1.jsonl" "$obsdir/tp$procs.jsonl"
    cmp "$obsdir/m1.prom" "$obsdir/mp$procs.prom"
done

# Daemon determinism end to end: the same seeded churn schedule with the
# fault layer on must produce byte-identical replay summaries, traces,
# and metrics at -workers 1 and 8 — the streaming half of the replay
# contract, checked through the real CLI.
go build -o "$obsdir/paragond" ./cmd/paragond
for w in 1 8; do
    "$obsdir/paragond" -n0 2000 -m0 10000 -k 8 -batches 40 \
        -adds 200 -removes 80 -arrivals 5 -workers "$w" \
        -fault-rate 0.35 -replay-out "$obsdir/d$w.txt" \
        -trace "$obsdir/dt$w.jsonl" -metrics "$obsdir/dm$w.prom" > /dev/null
done
cmp "$obsdir/d1.txt" "$obsdir/d8.txt"
cmp "$obsdir/dt1.jsonl" "$obsdir/dt8.jsonl"
cmp "$obsdir/dm1.prom" "$obsdir/dm8.prom"

# Combine determinism end to end: the portfolio door, whose combine runs
# every pair of the touched partitions as anti-diagonal waves on the wave
# engine with all -workers (DESIGN.md §17), at -workers 1 and 8 — once
# under a uniform matrix (uma: move for move the serial sweep) and once
# under an architecture-aware one (pitt: foreign partitions seen as of the
# wave's start). Assignment, trace and metrics must be byte-identical.
for cl in uma pitt; do
    for w in 1 8; do
        "$obsdir/paragon" -in "$obsdir/g.metis" -k 16 -cluster "$cl" -workers "$w" -seed 9 \
            -shuffles 2 -portfolio 4 -out "$obsdir/pa-$cl$w.txt" \
            -trace "$obsdir/pt-$cl$w.jsonl" -metrics "$obsdir/pm-$cl$w.prom" > /dev/null
    done
    cmp "$obsdir/pa-${cl}1.txt" "$obsdir/pa-${cl}8.txt"
    cmp "$obsdir/pt-${cl}1.jsonl" "$obsdir/pt-${cl}8.jsonl"
    cmp "$obsdir/pm-${cl}1.prom" "$obsdir/pm-${cl}8.prom"
    grep -q '"kind":"portfolio_combine"' "$obsdir/pt-${cl}1.jsonl"
done
# The same door at k-hop 1: members repair their mask once per round
# instead of at every barrier (DESIGN.md §17).
for w in 1 8; do
    "$obsdir/paragon" -in "$obsdir/g.metis" -k 16 -cluster pitt -khop 1 -workers "$w" -seed 9 \
        -shuffles 2 -portfolio 4 -out "$obsdir/pk$w.txt" \
        -trace "$obsdir/pkt$w.jsonl" -metrics "$obsdir/pkm$w.prom" > /dev/null
done
cmp "$obsdir/pk1.txt" "$obsdir/pk8.txt"
cmp "$obsdir/pkt1.jsonl" "$obsdir/pkt8.jsonl"
cmp "$obsdir/pkm1.prom" "$obsdir/pkm8.prom"

# Bench bitrot smoke: compile and run every benchmark once so benchmark
# code can't silently rot between perf-measurement sessions.
go test -bench=. -benchtime=1x -run='^$' ./... > /dev/null

# The benchmark harness is a module of its own (bench/go.mod), so the
# root ./... above never builds it: vet it and run its tests, which drive
# all four BENCHMARK.json workloads at -scale tiny through the
# correctness gate (cross-worker hash identity, directory recovery,
# replay identity across sessions).
(cd bench && go vet ./... && go test ./...)

# Layering guards. The stack/apparatus line (DESIGN.md §7): no stack
# package depends on the reproduction apparatus — the experiment layer,
# the BSP simulator and its applications, and the METIS/ParMETIS
# baselines. The apparatus that reproduced nothing in the paper's §7 was
# deleted (DESIGN.md §19); its import paths must not come back. The
# splitmix64/FNV-1a primitives stay defined once, in internal/detrand (its
# pinned vectors are what keep seeds and journal checksums stable). Plain
# `! cmd` would be exempt from errexit.
stack=(graph partition topology stream aragon paragon portfolio session dir dyn migrate faultsim obs detrand gen)
stackdeps="$(go list -deps "${stack[@]/#/./internal/}")"
if grep -E '^paragon/internal/(exp|bsp|apps|metis|parmetis)$' <<< "$stackdeps"; then
    echo "ci: a stack package depends on the apparatus above; keep the apparatus out of the stack" >&2
    exit 1
fi
if git grep -nE '"paragon/internal/(zoltan|mizan|aragonlb|vertexcut|gas|exchange)"' -- '*.go'; then
    echo "ci: a deleted apparatus package is imported again; it reproduces no §7 table or figure" >&2
    exit 1
fi
if git grep -nE 'func (mix64|sessionMix|splitmixFin|fnvFold|fnvMix)\(' -- '*.go' ':!internal/detrand'; then
    echo "ci: a private mixer/FNV copy is back; use internal/detrand" >&2
    exit 1
fi
# One gain path: aragon.Refiner keeps every gain in delta mode, seeded
# once per candidate (DESIGN.md §9). The adjacency-rescan evaluator, its
# frozen-view reader and the closure that re-ran it per update must not
# come back.
if git grep -nE 'ExternalDegreesSparseFrozen|SetFrozen\(' -- '*.go' ||
    git grep -nE 'recompute[[:space:]]*:?=[[:space:]]*func' -- 'internal/aragon/*.go'; then
    echo "ci: a gain-rescan path is back in the pair kernel; seed once, update by delta" >&2
    exit 1
fi
# Two views, one load vector (DESIGN.md §14): the master is the wave-start
# view and commits at the wave barrier. The third assignment mirror, the
# per-round load copy and the round-end replay must not come back.
if git grep -nwE 'frozen|roundLoads|commitRound' -- 'internal/paragon/*.go' ':!internal/paragon/*_test.go'; then
    echo "ci: a third scheduler view or a second move replay is back; commit at the wave barrier" >&2
    exit 1
fi
# One pair loop (DESIGN.md §12, §17): members and combine run their pairs
# on paragon.WaveEngine, and the mask comes from WaveEngine.Repair or the
# bitset search. Neither a serial pair loop in the
# portfolio (members' or combine's), the map-and-sort expansion, the
# engine's sharded sweeps nor a masked gather on an Index may come back.
if git grep -n 'RefinePair(' -- 'internal/portfolio/*.go' ':!internal/portfolio/*_test.go' ||
    git grep -nE 'refineRound|allowedMask|reloadWeights' -- '*.go' ':!*_test.go' ||
    git grep -nwE 'runMaskShards|runShipShards|WordShard|sweeps' -- 'internal/paragon/*.go' 'internal/partition/*.go' ':!*_test.go' ||
    git grep -n 'appendMasked' -- '*.go' ':!*_test.go' ||
    git grep -n 'ExpandFrontier' -- 'internal/portfolio/*.go' ':!internal/portfolio/*_test.go'; then
    echo "ci: a second pair loop, a sweep on the wave engine, a masked Index gather or graph.ExpandFrontier in the portfolio is back" >&2
    exit 1
fi
# One accounting path (DESIGN.md §13): Stats is the record, and the metrics
# that mirror it are published from it on return, in observe.go. Neither
# per-site metric writes in the driver nor a portfolio handle struct may
# come back.
if git grep -nE 'mx\.[a-zA-Z]+\.(Inc|Add|Set)\(' -- internal/paragon/paragon.go ||
    git grep -nw 'portfolioMetrics' -- 'internal/portfolio/*.go'; then
    echo "ci: a second metrics accounting path is back; publish from Stats (observe.go)" >&2
    exit 1
fi
# One freeze path (DESIGN.md §18): the session snapshot, the overlay, and
# every induced and coarse graph of METIS's hierarchy (DESIGN.md §14) are
# built by graph.FromSymmetricRows straight from their adjacency. A
# Builder staging loop must not come back to any of them, nor a map to
# the partitioner, the repartitioner or the overlay's rows.
if git grep -n 'NewBuilder' -- 'internal/session/*.go' internal/graph/overlay.go \
        'internal/metis/*.go' internal/graph/traverse.go ':!*_test.go' ||
    git grep -nE '(^|[^[:alnum:]_])map\[' -- 'internal/metis/*.go' 'internal/parmetis/*.go' \
        internal/graph/overlay.go ':!*_test.go'; then
    echo "ci: a graph.Builder freeze or a map is back; use graph.FromSymmetricRows and dense tables" >&2
    exit 1
fi
# Goroutines start only at the six sites of DESIGN.md §8:
# cmd/paragonlint's TestGoStatementsOnlyAtListedSites (run by go test
# above) fails on a go statement anywhere else. The guards below keep
# the rest of each retired fan-out out.
#
# Dense inboxes (DESIGN.md §8, §19): the BSP simulator runs a superstep's
# ranks in order on the calling goroutine and folds every send through
# Program.Combine into a dense next-superstep inbox. The sync import and
# map-keyed outboxes or inboxes must not come back to it.
if git grep -nE '(^|[^[:alnum:]_])map\[|"sync(/atomic)?"' -- 'internal/bsp/*.go' ':!*_test.go'; then
    echo "ci: the sync import or a map is back in internal/bsp; run ranks in order into dense inboxes" >&2
    exit 1
fi
# One loop (DESIGN.md §8, §19): the migration service walks the plan in
# order on the calling goroutine and journals departures in one slice.
# The sync import and channels must not come back to it.
if git grep -nE '(^|[^[:alnum:]_])chan([^[:alnum:]_]|$)|"sync(/atomic)?"' -- 'internal/migrate/*.go' ':!*_test.go'; then
    echo "ci: the sync import or a channel is back in internal/migrate; walk the plan in order" >&2
    exit 1
fi
# One edge-key set (DESIGN.md §19): RMAT and ErdosRenyi dedup through
# gen's open-addressed edgeSet. A map of edge keys must not come back to
# them.
if git grep -n 'map\[int64\]' -- 'internal/gen/*.go' ':!*_test.go'; then
    echo "ci: a map dedup is back in the edge generators; use edgeSet" >&2
    exit 1
fi
# One RMAT generator (DESIGN.md §8, §19): every graph comes from gen's
# serial generators on the calling goroutine. The sync import must not
# come back to internal/gen.
if git grep -nE '"sync(/atomic)?"' -- 'internal/gen/*.go' ':!*_test.go'; then
    echo "ci: the sync import is back in internal/gen; generate on the calling goroutine" >&2
    exit 1
fi
# One live graph (DESIGN.md §18): graph.Overlay is the session's adjacency,
# and the greedy k-way rule has one copy, metis.RefineKWay. The session's
# own rows and their helpers, the overlay's added/removed maps and their
# keys, and parmetis's copy of the refiner must not come back (the lint
# fixtures keep the historical bodies their checkers caught).
if git grep -nwE 'removeHalf|canonKey|edgeKey|dropAdded|greedyKWayRefine' -- '*.go' ':!internal/lint/testdata' ||
    git grep -nF '[][]half' -- 'internal/session/*.go'; then
    echo "ci: a second mutable graph or a copied k-way refiner is back; use graph.Overlay and metis.RefineKWay" >&2
    exit 1
fi
# An O(moved) join (DESIGN.md §18): a committed epoch folds its moves into
# the live score edge by edge. The O(|E|) re-sweep serves New only.
if git grep -n 'recomputeLive' -- internal/session/epoch.go; then
    echo "ci: the join re-sweeps the live score again; fold the moves in with scoreEdge" >&2
    exit 1
fi
# Pay for the boundary, not the graph (DESIGN.md §14): the scheduler's
# profile starts empty and is materialized for movable vertices only (the
# shadow gathers a pair from two movable lists; appendMasked is guarded
# above). The all-vertices build in the scheduler must not come back.
if git grep -n 'BuildNeighborProfile(' -- 'internal/paragon/*.go' ':!internal/paragon/*_test.go'; then
    echo "ci: the full-table profile build is back on the scheduler's path" >&2
    exit 1
fi
# The wave's live view is one assignment array (DESIGN.md §9): a worker's
# move is one store into the shadow's Assign, and the movable lists follow
# the master, written between waves by Sync and Commit only. The padded
# per-partition buckets whose masked prefix every move kept must not come
# back.
if git grep -nE 'shadowBucket|\.front\b' -- 'internal/partition/*.go' ':!internal/partition/*_test.go'; then
    echo "ci: the shadow's masked-prefix buckets are back; workers write the view's Assign only" >&2
    exit 1
fi
# One gather path (DESIGN.md §9, §12): every production sweep takes a
# pair's candidates from the Shadow's movable lists, and serial ARAGON is
# paragon.RefineSerial on the wave engine. The Index's membership buckets,
# their scatter fill and aragon's own all-pairs loop must not come back.
if git grep -nwE 'buckets|bucketCap|scatter' -- internal/partition/index.go ||
    git grep -nF 'func Refine(' -- 'internal/aragon/*.go' ':!internal/aragon/*_test.go'; then
    echo "ci: the Index's membership buckets or aragon's own pair loop is back; gather from the Shadow, sweep on the wave engine" >&2
    exit 1
fi
# One owner for what a barrier's moves change (DESIGN.md §12, §14): the
# wave engine's commit walk records each kept move for its movable mask,
# and the driver adds it to the migration totals at the same barrier. The
# Movable type that the driver and the members drove beside the engine,
# the scheduler wrapper around it, and the driver's diff bitset with its
# end-of-call sweep must not come back.
if git grep -nE 'type Movable([^[:alnum:]_]|$)|newScheduler|mov\.Moved|diff[[:space:]]+\*partition\.Bitset|\.diff\.(SetTo|Range)\(' -- 'internal/paragon/*.go' 'internal/portfolio/*.go' ':!*_test.go'; then
    echo "ci: a second keeper of the movable mask or the diff bitset is back; the wave engine records moves at its barrier" >&2
    exit 1
fi
# One interleaved gain heap (DESIGN.md §9): an entry's gain and id share
# one array element and sift through a hole. The parallel id/gain slices
# and their swap must not come back.
heapSlices=$(git grep -hcE '^[[:space:]]+[[:alnum:]_, ]+[[:space:]]\[\]' -- internal/partition/gainheap.go || echo 0)
if git grep -nE 'func \(h \*GainHeap\) swap' -- internal/partition/gainheap.go || [ "$heapSlices" -gt 1 ]; then
    echo "ci: the gain heap holds parallel slices again ($heapSlices slice declarations); keep one interleaved array" >&2
    exit 1
fi
# Seed where the data is (DESIGN.md §14): a profile segment's live count
# and the vertex's data size sit in its header entry, behind the one
# offset lookup. The per-vertex live array must not come back.
if git grep -nE 'np\.live\b|\blive[[:space:]]+\[\]int32' -- internal/partition/profile.go; then
    echo "ci: a per-vertex live array is back in the neighbor profile; the segment header holds the count" >&2
    exit 1
fi
# One objective grid (DESIGN.md §10): every gain and score of the
# refinement is an int64. The float-association scaffolding — the
# migration sweep's fixed shards and the float64(x*y) rounding guards —
# must not come back to the packages that compute them.
if git grep -nE 'sweepShards|shardRange|float64\(float64\(' -- 'internal/aragon/*.go' 'internal/partition/*.go' 'internal/paragon/*.go' 'internal/portfolio/*.go'; then
    echo "ci: float-order scaffolding is back in the refinement; keep its objective on the integer grid" >&2
    exit 1
fi
# One rounding per product on every architecture (DESIGN.md §10): the one
# float computation that still decides something is the topology cost
# model, pinned by goldens to the bit, and a compiler may fuse x*y + z
# into one rounding unless the product goes through an explicit float64
# conversion; arm64 does, amd64 does not. Cross-compile cmd/paragon, the
# binary that links topology (cmd/paragond links none of it; the standard
# library builds from the local GOROOT, no network), and demand that no
# fused multiply-add survives there.
GOARCH=arm64 go build -o "$lintdir/paragon.arm64" ./cmd/paragon
asm="$(go tool objdump -s 'paragon/internal/topology\.' "$lintdir/paragon.arm64")"
if grep -E 'FMADD|FMSUB|FNMADD|FNMSUB' <<< "$asm"; then
    echo "ci: cmd/paragon fuses a multiply-add on arm64; wrap the product in float64(...)" >&2
    exit 1
fi
# Integer placers (DESIGN.md §10): DG, LDG and Fennel score on int64 loads
# and exact integer products. The session's float load mirror and the
# math.Pow penalty must not come back to the placers or the session.
if git grep -nE '\b(floads|FennelAlpha)\b|math\.Pow\(' -- 'internal/stream/*.go' 'internal/session/*.go'; then
    echo "ci: a float load, FennelAlpha or math.Pow is back in the placers; keep their scores on int64" >&2
    exit 1
fi
# Every setting earns a caller (DESIGN.md §19): the settings no production
# caller set must not come back, and a refinement's fault layer is spelled
# one way, Config.Fabric — the (FaultSeed, FaultRate) pair lives in the
# session and the CLIs, which build the injectors.
if git grep -nwE 'BadMoveLimit|RegionSize|CombineTop|FsyncTicks|ComputePerVertex|ComputePerEdge|MaxSupersteps|ShardBits' -- '*.go' ||
    git grep -nE 'FaultRate|FaultSeed' -- 'internal/paragon/*.go' 'internal/portfolio/*.go' ':!*_test.go'; then
    echo "ci: a deleted setting is back; make it a constant or give it a production caller" >&2
    exit 1
fi
# Refine publishes nothing (DESIGN.md §16, §19): callers publish the
# refined assignment to a directory themselves. The driver's publish
# phase and its counters must not come back to internal/paragon.
if git grep -nwE 'publishEpoch|DirectoryEpochs|PublishAborts' -- 'internal/paragon/*.go'; then
    echo "ci: the driver publishes to a directory again; publish the refined assignment from the caller" >&2
    exit 1
fi
# Every function earns a caller (DESIGN.md §19): what no binary linked and
# no test held other code against was deleted. Its names must not come
# back in non-test Go; the audit there lists what may stay unlinked.
if git grep -nwE 'FatTreeCluster|DragonflyCluster|PageRankConverged|HolmeKim|PublishPlan|WriteJournal|DegreeHistogram|FromCSR|PendingChanges|AddedEdges|ReceivesAt|AvgSkew|RMATSharded' -- '*.go' ':!*_test.go'; then
    echo "ci: a deleted unlinked function is back; give it a binary that links it or leave it out" >&2
    exit 1
fi
# One door per plane (DESIGN.md §13, §11, §19): only coordinators emit
# trace events (workers report through task-indexed results, and the wave
# engine does not import obs), the fault layer is the one concrete
# *faultsim.Injector, migration has one fault-aware door, and the six
# apparatus/fault settings nobody set stay constants.
if git grep -nwE 'CommitStaged|ExecOptions|ExecuteOpts|FaultFabric|CoarsenTo|InitTries|MaxDelay' -- '*.go' ':!*_test.go' ||
    git grep -nE 'faultsim\.Fabric\b|obs\.Buf\b' -- '*.go'; then
    echo "ci: a second trace, fault or migration door is back; emit from the coordinator, take a *faultsim.Injector" >&2
    exit 1
fi
if grep -q '"paragon/internal/obs"' internal/paragon/engine.go; then
    echo "ci: internal/paragon/engine.go imports paragon/internal/obs; workers never touch the observability plane" >&2
    exit 1
fi
# One record per fact (DESIGN.md §11, §13, §19): the recovery policy is
# faultsim's constants and Backoff, Eq. 4 is partition.SkewnessOf, and a
# trigger decision is its Code. The policy struct, a second skewness in the
# session and the decision's Reason string must not come back.
if git grep -nwE 'DefaultPolicy|faultsim\.Policy' -- '*.go' ':!*_test.go' ||
    git grep -nwE 'Reason' -- 'internal/dyn/*.go' ':!*_test.go' ||
    git grep -nwE 'func \(s \*Session\) skewness' -- '*.go' ':!*_test.go'; then
    echo "ci: a second record is back; use faultsim.MaxRetries/RoundTimeout/Backoff, partition.SkewnessOf and Decision.Code" >&2
    exit 1
fi
# One clock checker (DESIGN.md §15): wallclock's kernel set is the
# facade's import closure, lint.Loader.Deps. The CHA call graph, the
# taint checker that walked it and the loader's whole-set accessor must
# not come back.
if git grep -nwE 'BuildCallGraph|NewTaint|ExportedRoots|ReachablePackages|AllLoaded' -- '*.go'; then
    echo "ci: the call graph or the taint checker is back; the kernel set is loader.Deps(module)" >&2
    exit 1
fi
# Formatting: every tracked Go file outside the lint fixtures (whose
# columns the lint tests may pin) is gofmt-clean.
unformatted="$(git ls-files '*.go' ':!internal/lint/testdata' | xargs gofmt -l)"
if [ -n "$unformatted" ]; then
    echo "ci: gofmt -l reports:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "ci: all green"
