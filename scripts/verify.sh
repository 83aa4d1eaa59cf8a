#!/bin/sh
# Tier-1 verification: build + full test suite, static checks, the race
# detector on the packages where concurrency bugs would hide (telemetry
# sinks are called from every worker thread; the cube solver owns the
# P×Q×R barrier choreography; the omp and cube engines flip the shared
# double-buffer parity bit from worker threads; the taskflow engine
# schedules cubes over a dependency graph; the fused engine's wavefront
# sweep overlaps collide and finalize planes across one parallel region;
# the cluster solver exchanges halos between ranks; perfmon profiles
# accumulate from all workers; par's timed barrier wraps the team
# barrier), differential-testing and fuzz smokes (a seeded cross-engine
# sweep plus short native-fuzz runs of the decoders), the flight-recorder
# and critical-path CLI smokes, and a vet + test pass over the separate
# perfbench module so a library API change cannot break the benchmark
# unnoticed.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go test ./...
go vet ./...
go vet -stdmethods=false ./...

# The benchmark harness is its own module (replace lbmib => ../), so the
# root ./... patterns above do not reach it.
go -C perfbench vet ./...
go -C perfbench test ./...

# Domain-aware static analysis: lbmib-lint proves the lock discipline,
# barrier choreography, buffer-parity contract, float-comparison policy,
# and observer nil-guards the race detector can only sample. The repo
# must be finding-free (reviewed exemptions carry //lint:allow), and the
# analyzers themselves must still catch every seeded defect in the
# golden-bad corpus.
scripts/lint ./...
go test -run 'TestAnalyzersGoldenCorpus|TestLintSelfHost' ./internal/analysis/

# Barrier fusibility coverage gate: the phase-effect engine must classify
# every barrier site of all three engines as required or fusible (exit 1
# on any unclassified site or fold-legality diagnostic), and the freshly
# derived report must match the committed one byte for byte — a fold or
# kernel change that shifts a verdict must re-commit its proof.
FUSEOUT=$(mktemp)
go run ./cmd/lbmib-lint -fusibility -o "$FUSEOUT"
cmp FUSE_report.json "$FUSEOUT"
rm -f "$FUSEOUT"

go test -race ./internal/telemetry/... ./internal/cubesolver/... ./internal/omp/... ./internal/fused/... ./internal/taskflow/... ./internal/cluster/... ./internal/perfmon/... ./internal/par/... ./internal/flightrec/... ./internal/critpath/... ./internal/perfsim/...

# Cross-engine differential smoke: 10 seeded cases on every engine,
# including the fused engine in both storage modes (float64 on the
# bitwise/Tol contract, float32 on the relaxed Tol32 contract).
go run ./cmd/lbmib-crosscheck -seeds 10

# Fused-sweep fuzz smoke: arbitrary tiny configurations through five
# fused steps must never panic or produce a non-finite field.
go test -run '^$' -fuzz '^FuzzFusedStep$' -fuzztime 5s ./internal/fused/

# Checkpoint decoder fuzz smoke: arbitrary bytes must never panic.
go test -run '^$' -fuzz '^FuzzRestore$' -fuzztime 10s .

# Lint loader fuzz smoke: arbitrary bytes through the single-file
# analysis pipeline must never panic either.
go test -run '^$' -fuzz '^FuzzLintParse$' -fuzztime 5s ./internal/analysis/

# Fusibility report fuzz smoke: arbitrary bytes through the report
# decoder must never panic and must round-trip when they validate.
go test -run '^$' -fuzz '^FuzzFusibilityReport$' -fuzztime 5s ./internal/fusereport/

# Flight-recorder forensics smoke: a run driven far past the lattice's
# stability envelope must trip the watchdog, leave a post-mortem bundle,
# and lbmib-postmortem must decode it.
FRDIR=$(mktemp -d)
if go run ./cmd/lbmib-sim -solver cube -threads 2 -nx 16 -ny 16 -nz 16 \
	-steps 60 -sheet "" -force 0.05 -flightrec "$FRDIR"; then
	echo "unstable run should have tripped the watchdog" >&2
	rm -rf "$FRDIR"
	exit 1
fi
test -f "$FRDIR/manifest.json"
go run ./cmd/lbmib-postmortem -ring 5 "$FRDIR"
rm -rf "$FRDIR"

# Critical-path profiler smoke: a tiny attributed run must emit a valid
# schema-versioned report naming at least one barrier site.
CPOUT=$(mktemp)
go run ./cmd/lbmib-profile -critpath -solver cube -threads 2 \
	-nx 16 -ny 16 -nz 16 -steps 10 -sheet 8x8 -critpath-out "$CPOUT"
grep -q '"schema": "lbmib-critpath/v1"' "$CPOUT"
grep -q '"site": "end_of_step"' "$CPOUT"
rm -f "$CPOUT"
