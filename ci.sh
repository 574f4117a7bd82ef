#!/usr/bin/env bash
# ci.sh — the canonical verify pipeline for this repository.
#
# Tier-1 (ROADMAP.md) is `go build ./... && go test ./...`; this script is
# the full gate: vet, gofmt, the static-analysis driver, the test suite (with
# shuffled execution order, so inter-test state leaks cannot hide), the race
# detector over every internal package, the benchmark-regression harness,
# the chopperd and chopperfleet smoke gates, short native-fuzz runs, and the
# workload gate.
#
# The static tools are two binaries, built once into bin/:
#
#   chopperlint    one load and one pass of every internal/lint rule family
#                  over ./... — determinism and correctness, lock contracts
#                  and the durability protocol, key flow, and hot-path
#                  allocation sites gated against heapbudget.json — writing
#                  the wire-JSON findings to lint.json and the human lines
#                  to stderr.
#   chopperverify  the workload gate: every built-in workload's statically
#                  extracted plans and key facts, checked against the
#                  plan-IR invariants and diffed against the runtime
#                  (plan and key-fact drift), plus the plan and
#                  configuration verifiers over vanilla, forced and tuned
#                  runs.
#
# Every step must pass for a change to land; both tools exit non-zero on
# any finding. See DESIGN.md §6 for the rule catalogue, the workload gate
# and the //lint:ignore suppression syntax (a suppression must carry a
# reason).
set -euo pipefail
cd "$(dirname "$0")"

# Per-gate wall-time accounting: gate <name> starts a step, printing the
# previous one's duration; the table is replayed before "CI OK".
gate_times=()
gate_name=""
gate_start=0
gate() {
    local now
    now="$(date +%s)"
    if [[ -n "$gate_name" ]]; then
        gate_times+=("$(printf '%4ds  %s' "$((now - gate_start))" "$gate_name")")
    fi
    gate_name="${1-}"
    gate_start="$now"
    if [[ -n "$gate_name" ]]; then
        echo "== $gate_name =="
    fi
}

gate "toolchain"
# The toolchain is pinned in go.mod; refuse to run under a silently
# different one (results must be reproducible across CI machines).
want="$(sed -n 's/^toolchain //p' go.mod)"
have="$(go env GOVERSION)"
if [[ -n "$want" && "$have" != "$want" ]]; then
    echo "ci.sh: toolchain mismatch: go.mod pins $want, running $have" >&2
    exit 1
fi
go version

gate "build"
go build ./...

gate "build gate CLIs"
mkdir -p bin
go build -o bin/ ./cmd/chopperlint ./cmd/chopperverify

gate "vet"
go vet ./...

gate "gofmt"
# Every Go file is gofmt-clean; list the offenders and fail otherwise.
unformatted="$(gofmt -l .)"
if [[ -n "$unformatted" ]]; then
    echo "ci.sh: gofmt -l . lists files that are not gofmt-clean:" >&2
    echo "$unformatted" >&2
    exit 1
fi

gate "chopperlint"
# All 20 rules in one pass over one shared program load. The wire-JSON
# artifact is byte-stable (sorted findings), so it is diffable across runs.
# TestRepoIsClean runs the same sweep in-process and asserts that it covers
# internal/lint, internal/lint/ssa and internal/plan/extract, so the
# analyzers and the extractor stay subject to their own rules.
bin/chopperlint -json ./... > lint.json

gate "test (shuffled)"
go test -shuffle=on ./...

gate "race"
go test -race ./internal/...

gate "race (parallel sweep)"
# The driver pool's contract — parallel sweeps byte-identical to sequential
# — is asserted by TestParallelMatchesSequential; run it explicitly under
# the race detector so pool regressions fail loudly even if the package
# sweep above is ever narrowed.
go test -race -run 'TestParallelMatchesSequential' -count=1 ./internal/experiments

gate "chopperbench (regression gate)"
# Benchmark-regression harness: re-measures the columnar shuffle/combine
# kernels, the quick sweep, the chopperd serving stack under closed-loop
# load, and the fleet saturation table (1/2/4 in-process shards behind the
# router), then gates allocs/op (exact, machine-independent), the >=50%
# bytes/op arena floor vs the compiled-in boxed pre-arena numbers, the
# parallel-sweep speedup (floor scaled to GOMAXPROCS), zero dropped service
# requests, and zero dropped fleet requests plus the 4-vs-1 shard scaling
# floor (also GOMAXPROCS-scaled) against the committed baseline. The heap
# profile of the gate run is kept as an artifact (chopperbench-heap.pprof)
# so allocation regressions can be diffed with `go tool pprof` without
# re-running.
# Re-baseline with:
#   go run ./cmd/chopperbench -out BENCH_10.json
go run ./cmd/chopperbench -short -compare BENCH_10.json -tolerance 10% -memprofile chopperbench-heap.pprof

gate "chopperbench (deliberate break)"
# Prove the arena bytes/op floor actually bites: re-introducing a per-pair
# copy on the reduce side (materializing arena views to boxed pairs before
# the merge) must trip the >=50% floor, while the real columnar path
# clears it.
go test -run 'TestPlantedPerPairCopyTripsBytesFloor' -count=1 ./cmd/chopperbench

gate "chopperd smoke"
# End-to-end daemon gate: spawn a real chopperd on an ephemeral port, train,
# survive a 64-way mixed burst with zero drops, SIGKILL and verify the
# journal replays to a byte-identical recommendation, then SIGTERM with a
# job in flight and verify the clean drain + snapshot restart.
go build -o /tmp/chopperd.ci ./cmd/chopperd
go run ./cmd/chopperload -smoke -chopperd /tmp/chopperd.ci

gate "chopperfleet smoke"
# Fleet deployment gate: spawn a real 2-shard fleet (two primaries plus a
# replica of shard 0) behind an in-process router, verify hashed write
# placement and the merged workload view, SIGKILL the replica mid-load with
# zero client-visible errors, advance the primary's journal while the
# replica is down, then restart it and verify it catches up from its last
# durable position to a byte-identical recommendation.
go run ./cmd/chopperload -fleet-smoke -chopperd /tmp/chopperd.ci

gate "fuzz (5s)"
go test -run='^$' -fuzz=Fuzz -fuzztime=5s ./internal/exec
go test -run='^$' -fuzz=FuzzPlanInvariants -fuzztime=5s ./internal/plan/verify
go test -run='^$' -fuzz=FuzzSymbolicExtract -fuzztime=5s ./internal/plan/extract
go test -run='^$' -fuzz=FuzzLockContract -fuzztime=5s ./internal/lint
go test -run='^$' -fuzz=FuzzKeyFacts -fuzztime=5s ./internal/lint
go test -run='^$' -fuzz=FuzzHeapFacts -fuzztime=5s ./internal/lint

gate "chopperverify"
bin/chopperverify -workload=all

gate
echo "== gate wall times =="
printf '%s\n' "${gate_times[@]}"
echo "CI OK"
