#!/usr/bin/env bash
# Repository gate: formatting, vet, build, race-enabled tests.
# Run from anywhere; exits nonzero on the first failure.
# CHECK_TIMEOUT bounds the test phases (go test -timeout; default 10m).
set -euo pipefail
cd "$(dirname "$0")/.."

CHECK_TIMEOUT="${CHECK_TIMEOUT:-10m}"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== staticcheck =="
# Pinned in CI (see .github/workflows/ci.yml); locally it runs when the
# binary is on PATH and is skipped otherwise, since this script must
# work offline.
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
else
    echo "staticcheck not installed; skipping (CI runs it)"
fi

echo "== govulncheck =="
# Pinned in CI (see .github/workflows/ci.yml); locally it runs when the
# binary is on PATH and is skipped otherwise — the vulnerability
# database lookup needs the network and this script must work offline.
if command -v govulncheck >/dev/null 2>&1; then
    govulncheck ./...
else
    echo "govulncheck not installed; skipping (CI runs it)"
fi

echo "== go build =="
go build ./...

echo "== experiments_output.txt staleness =="
# Re-render every experiment and diff against the committed output
# (regenerate with: go run ./cmd/mtexp -e all -time > experiments_output.txt).
# Only measured wall-clock may differ: the "(<id> in <duration>)" lines
# and the header, rule and two measured rows of the Sec. 6.2 speedup
# table. Everything else renders byte-identically across runs and -j.
stable_output() {
    awk '
        /^==== / { speedup = ($2 == "speedup:") }
        /^\([a-z0-9]+ in [^)]*\)$/ { next }
        speedup && (/^tool / || /^-+ / || /^switch-level \(measured/ || /^reference engine \(measured/) { next }
        { print }
    ' "$1"
}
rendered=$(mktemp)
trap 'rm -f "$rendered"' EXIT
go run ./cmd/mtexp -e all -time > "$rendered"
if ! diff -u <(stable_output experiments_output.txt) <(stable_output "$rendered"); then
    echo "experiments_output.txt is stale; regenerate it (command above)" >&2
    exit 1
fi

echo "== go test -race =="
go test -race -timeout "$CHECK_TIMEOUT" ./...

echo "== fault-injection gate (-race) =="
go test -race -timeout "$CHECK_TIMEOUT" -count=1 ./internal/faultinject/ ./internal/spice/

echo "== parallel-sweep gate (-race) =="
# Determinism and thread-safety of the sweep executor and the compiled
# engines: identical results at any worker count, concurrent runs on
# shared engines, atomic fault counters.
go test -race -timeout "$CHECK_TIMEOUT" -count=1 \
    -run 'TestMap|TestWorkers|TestCompiledConcurrentRuns|TestEngineConcurrentRuns|TestConcurrentInjection|TestWorkerCountIndependence|TestFig7WorkerCountInvariant|TestFig14WorkerCountInvariant|TestWorstVectorSearch|TestSimWLSweep|TestExpWorkersFlag|TestFacadeBatchAndSweep|TestRestartIndependentSeeds|TestRefineLevelsWorkerInvariance|TestRefineWorkerCountInvariant' \
    ./internal/sched/ ./internal/core/ ./internal/spice/ ./internal/faultinject/ \
    ./internal/sizing/ ./internal/experiments/ ./internal/vectors/ ./internal/cli/ \
    ./internal/sca/ .

echo "== shard chaos + resume gate (-race) =="
# The multi-process shard executor under injected worker faults:
# crashed/hung/garbage workers are retried, poison shards quarantine,
# journaled runs resume, and rendered output stays byte-identical to
# the serial in-process run throughout (DESIGN.md §12).
go test -race -timeout "$CHECK_TIMEOUT" -count=1 \
    -run 'TestRunSubprocessDeterministic|TestCrashedWorkersRetry|TestHungWorkerWatchdog|TestGarbageStreamRecovered|TestPoisonShard|TestPanickingTask|TestWorkerBudgetPropagates|TestCoordinatorBudgetKillsWorkers|TestLowestIndexedFailureWins|TestJournal|TestSpawnFailureFallsBackInProcess|TestFig14ShardedChaosByteIdentical|TestFig14PoisonShardDegrades|TestSpeedupSharded|TestSimSharded|TestSimResumeWorkflow|TestExpSharded|TestExpShardStatsUnderTime|TestExpResumeSingleExperimentOnly' \
    ./internal/shard/ ./internal/experiments/ ./internal/cli/

echo "== tcp transport chaos + resume gate (-race) =="
# The cross-host path (DESIGN.md §14): loopback mtworkd daemons under
# killed-daemon and crashed-worker chaos, handshake-mismatch refusal,
# remote exit-code propagation, transport-pinned journals, and the
# frame-decoder contract — rendered output stays byte-identical to
# local runs throughout.
go test -race -timeout "$CHECK_TIMEOUT" -count=1 \
    -run 'TestLoopbackDeterministic|TestCrashChaosOverTCP|TestDaemonKilledMidShardRecovers|TestAllHostsDown|TestAuth|TestHandshake|TestMismatchDoesNotDegrade|TestSlotsBusySpillsOver|TestRemoteExitCodePropagates|TestJournalPinsTransportKind|TestParseHosts|TestKindSortsHosts|TestExpHosts|TestSimHosts|TestExpResumeRefusesTransportSwitch|TestVersionFlagAllTools|TestEncodeFrameRefusesOversize|TestDecodeFrame' \
    ./internal/shard/ ./internal/shard/net/ ./internal/cli/

echo "== prove gate (-race) =="
# The path-condition prover over the example decks on the parallel
# executor: witnesses, MT023, and MT019 suppression must hold under
# the race detector, and warnings are errors so a regression that
# un-suppresses a proven-driven node fails the gate.
go run -race ./cmd/mtlint -prove -verbose -werror -j 8 examples/decks/*.sp

echo "all checks passed"
