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

# Determinism linter: built into a temp dir (never the repo root), run
# with the SARIF artifact for CI consumers. The gate fails on any
# non-suppressed diagnostic, stale suppressions included — staleignore
# reports every //lint:ignore that no longer matches a live finding.
lintdir="$(mktemp -d)"
trap 'rm -rf "$lintdir"' EXIT
go build -o "$lintdir/paragonlint" ./cmd/paragonlint
"$lintdir/paragonlint" -sarif paragonlint.sarif -json paragonlint.json ./...

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

# The direct CSR fill against the Builder reference on fuzzed edge sets,
# for a fixed short time (the seed corpus alone runs in every `go test`).
go test -run='^$' -fuzz=FuzzFromSymmetricRows -fuzztime=5s ./internal/graph/

# The directory, the portfolio, and the session must sit inside
# paragonlint's computed kernel set (the facade re-exports pull them
# in) — if any drops out, the wallclock/sharedwrite/reduceorder checkers
# silently stop covering it.
# (Listed once into a variable: under pipefail, `paragonlint | grep -q`
# fails whenever grep exits on its match before the writer is done.)
kernel="$("$lintdir/paragonlint" -kernel)"
for pkg in dir portfolio session; do
    grep -q "^paragon/internal/$pkg\$" <<< "$kernel"
done

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
            -shuffles 2 -portfolio 4 -portfolio-combine 2 -out "$obsdir/pa-$cl$w.txt" \
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
        -shuffles 2 -portfolio 4 -portfolio-combine 2 -out "$obsdir/pk$w.txt" \
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

# Layering guards: the serving layer must not depend on the exchange
# strategies, and the splitmix64/FNV-1a primitives stay defined once, in
# internal/detrand (its pinned vectors are what keep seeds and journal
# checksums stable). Plain `! cmd` would be exempt from errexit.
dirdeps="$(go list -deps ./internal/dir)"
if grep -q internal/exchange <<< "$dirdeps"; then
    echo "ci: internal/dir depends on internal/exchange" >&2
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
# on paragon.WaveEngine, which runs pairs only, and the mask comes from
# paragon.Movable or the bitset search. Neither a serial pair loop in the
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
# One freeze path (DESIGN.md §18): the session snapshot and the overlay
# are frozen by graph.FromSymmetricRows straight from their adjacency. A
# Builder staging loop must not come back to either.
if git grep -n 'NewBuilder' -- 'internal/session/*.go' internal/graph/overlay.go ':!*_test.go'; then
    echo "ci: a graph.Builder freeze is back; use graph.FromSymmetricRows" >&2
    exit 1
fi
# Pay for the boundary, not the graph (DESIGN.md §14): the scheduler's
# profile starts empty and is materialized for movable vertices only (the
# shadow gathers a pair from two masked prefixes; appendMasked is guarded
# above). The all-vertices build in the scheduler must not come back.
if git grep -n 'BuildNeighborProfile(' -- 'internal/paragon/*.go' ':!internal/paragon/*_test.go'; then
    echo "ci: the full-table profile build is back on the scheduler's path" >&2
    exit 1
fi
# Seed where the data is (DESIGN.md §14): a profile segment's live count
# and the vertex's data size sit in its header entry, behind the one
# offset lookup. The per-vertex live array must not come back.
if git grep -nE 'np\.live\b|\blive[[:space:]]+\[\]int32' -- internal/partition/profile.go; then
    echo "ci: a per-vertex live array is back in the neighbor profile; the segment header holds the count" >&2
    exit 1
fi
# One rounding per product on every architecture (DESIGN.md §10): the
# goldens pin gains and scores to the bit, and a compiler may fuse
# x*y + z into one rounding unless the product goes through an explicit
# float64 conversion — arm64 does, amd64 does not. Cross-compile the two
# binaries that link the refinement stack (cmd/paragond for the session;
# the standard library builds from the local GOROOT, no network) and
# demand that no fused multiply-add survives in the packages whose
# floats are pinned.
for cmd in paragon paragond; do
    GOARCH=arm64 go build -o "$lintdir/$cmd.arm64" "./cmd/$cmd"
    asm="$(go tool objdump -s 'paragon/internal/(aragon|partition|paragon|portfolio|session|topology|stream)\.' "$lintdir/$cmd.arm64")"
    if grep -E 'FMADD|FMSUB|FNMADD|FNMSUB' <<< "$asm"; then
        echo "ci: cmd/$cmd fuses a multiply-add on arm64; wrap the product in float64(...)" >&2
        exit 1
    fi
done
# Formatting: every tracked Go file outside the lint fixtures (whose
# columns the lint tests may pin) is gofmt-clean.
unformatted="$(git ls-files '*.go' ':!internal/lint/testdata' | xargs gofmt -l)"
if [ -n "$unformatted" ]; then
    echo "ci: gofmt -l reports:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "ci: all green"
