#!/bin/sh
# Full pre-merge check: vet, build, race-enabled tests (with the
# engine-equivalence suites called out explicitly), and the perf
# regression gate: hareperf re-measures the gate benchmarks and
# compares them — including the BenchmarkObsDisabled /
# BenchmarkSimulatorReplay overhead ratio — against
# bench/baseline.json, failing on regression (docs/PERFORMANCE.md).
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> harelint ./... (determinism static analysis, docs/STATIC_ANALYSIS.md)"
go run ./cmd/harelint ./...

echo "==> go build ./..."
go build ./...

echo "==> engine equivalence under -race (sim incremental-vs-reference, sharded-vs-serial, experiments parallel-vs-serial)"
go test -race -run 'TestRunMatchesReference|TestRunGolden' ./internal/sim/
go test -race -run 'TestSharded|TestSimulatorReuse|TestRunShardedHandles' ./internal/sim/
go test -race -run 'TestParallelMatchesSerial' ./internal/experiments/

echo "==> planner equivalence under -race (OnlineHare and Fluid vs their _test.go reference implementations, seed-42 placement goldens, 10 s fuzz smoke)"
go test -race -run 'TestOnlineMatchesReference|TestFluidMatchesReference|TestGoldenSeed42Placements' ./internal/sched/...
go test -race -run '^$' -fuzz FuzzOnlineMatchesReference -fuzztime 10s ./internal/sched/

echo "==> event-stream ordering stress under -race (sequencing recorders record in Seq order, docs/OBSERVABILITY.md)"
go test ./internal/rpcnet -run TestTraceContextPropagation -count 50 -race

echo "==> span-tree and attribution equivalence under -race (seed-42 goldens, sim/testbed/distributed 1e-9)"
go test -race ./internal/obs/span/ ./internal/obs/critpath/

echo "==> fault-injection and chaos suites under -race (sim failures, distributed crash/lease recovery)"
go test -race -run 'TestSim(TransientFaults|Straggler|Failure|AllGPUs|RetriesMatch)|TestReference' ./internal/sim/
go test -race -run 'TestResidual' ./internal/faults/
go test -race -run 'TestDistributed|TestReportValidation' ./internal/rpcnet/
go test -race -run 'TestFaultSweep' ./internal/experiments/

echo "==> coordinator crash-safety under -race (WAL recovery, epoch fencing, lease edges, soak harness)"
go test -race -run 'TestKillRecoverMidBatch|TestFencingSurvivesRecovery|TestLeaseBoundary|TestDuplicateFailureReportsFenceOnce|TestJournalLSNGuard|TestExecutorGoroutineHygiene' ./internal/rpcnet/
go test -race ./internal/chaos/

echo "==> one transition function under -race (replay == live at every prefix, replay validates what live validates, 10 s coordinator fuzz smoke)"
go test -race -run 'TestReplayMatchesLive|TestRecoverRejectsOutOfRangeRecords' ./internal/rpcnet/
go test -race -run '^$' -fuzz FuzzCoordApply -fuzztime 10s ./internal/rpcnet/

echo "==> harechaos seed matrix (docs/ROBUSTNESS.md; same matrix as the CI chaos job)"
go run ./cmd/harechaos -seeds 20 -start 1

echo "==> go test -race ./..."
go test -race ./...

echo "==> perf regression gate (hareperf vs bench/baseline.json, docs/PERFORMANCE.md)"
make bench-compare

echo "OK"
