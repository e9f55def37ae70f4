#!/bin/sh
# The pre-merge checks, in the three stages the CI jobs call:
#
#   scripts/check.sh          # all three
#   scripts/check.sh tests    # vet, harelint, build, go test -race ./... (incl. the knob,
#                             # dead-surface and observability censuses), a haresim -compare CLI
#                             # smoke, a haresim -save-plan/-load-plan round trip, ordering,
#                             # kill/recover, dispatch/re-handshake/Close, in-memory
#                             # transport and call layer (kill/recover over mem:, Close vs
#                             # dial/accept, Kill severs connections and fails pending calls,
#                             # pipe errors retryable, Heartbeat beside a blocked Next,
#                             # handler errors as text, a fixed goroutine count with pushes
#                             # and with parked Nexts, a torn connection under a parked Next
#                             # leaves at once, bad frames, a mem: connection's ends, every way
#                             # into the distributed engine refusing a clock scale no wall
#                             # clock keeps) and
#                             # fail-closed/round-gate/wall-clock-wait/virtual-clock stress,
#                             # twelve 10 s fuzz smokes,
#                             # make loc
#   scripts/check.sh chaos    # the harechaos seed matrix
#   scripts/check.sh perf     # the hareperf cap gate
#
# This file is the one list: .github/workflows/ci.yml only calls these
# stages. `go test -race ./...` already runs every equivalence, golden,
# recovery and chaos-harness suite, so the stages add only what it does
# not do: repetition, fuzzing, the seed matrix and the benchmarks.
set -eu

cd "$(dirname "$0")/.."

tests() {
	echo "==> go vet ./..."
	go vet ./...

	echo "==> harelint ./... (determinism static analysis, docs/STATIC_ANALYSIS.md)"
	go run ./cmd/harelint ./...

	echo "==> go build ./..."
	go build ./...

	echo "==> go test -race ./..."
	go test -race ./...

	echo "==> CLI smoke: the paper's five schemes planned and simulated through the haresim binary"
	go run ./cmd/haresim -compare -jobs 12 >/dev/null

	echo "==> CLI smoke: a plan saved with -save-plan replays to the same output through -load-plan"
	tmp=$(mktemp -d)
	go run ./cmd/haresim -jobs 12 -save-plan "$tmp/plan.json" >"$tmp/save.txt"
	go run ./cmd/haresim -jobs 12 -load-plan "$tmp/plan.json" >"$tmp/load.txt"
	grep -v '^plan saved to ' "$tmp/save.txt" | cmp - "$tmp/load.txt"
	rm -r "$tmp"

	echo "==> event-stream ordering stress under -race (sequencing recorders record in Seq order, docs/OBSERVABILITY.md)"
	go test ./internal/rpcnet -run TestTraceContextPropagation -count 50 -race
	echo "==> kill/recover stress under -race (one recovery, and two with no snapshot between them)"
	go test ./internal/rpcnet -run '^(TestKillRecoverMidBatch|TestTwoRecoveriesWithoutSnapshot)$' -count 10 -race
	echo "==> dispatch stress under -race (a repeated Next or Push is sent the GPU's in-flight task; a re-handshake after a torn Next gets the task; Close does not deadlock with its accept loop)"
	go test ./internal/rpcnet -run '^(TestPushCarriesDispatch|TestNextCarriesBarrierAndCheckpoint|TestRehandshakeAfterTornNext|TestCloseRacesAccept)$' -count 20 -race
	echo "==> in-memory transport and call layer stress under -race (kill/recover over a mem: address; a released name is listened on again; Close refuses dials and deadlocks with neither a waiting dial nor its accept loop; Kill severs live connections, fails every pending call retryably and every goroutine returns; the pipe's errors start a fresh session; a Heartbeat beside a blocked Next is answered, over TCP and mem:; fenced and stale-epoch errors arrive as text; 1 000 pushes keep the goroutine count, and so do Nexts parked for three GPUs; a connection closed under a parked Next leaves the server at once; a bad body is answered and a bad header ends the connection; a mem: connection drains to io.EOF, refuses writes to a closed peer and Close ends a pending Read; ServeDistributed, a DistributedBackend, chaos.RunSpec, RecoverDistributed and an executor's Config reply refuse a TimeScale of 0, -1, -Inf, NaN or +Inf at once)"
	go test ./internal/rpcnet -run '^(TestKillRecoverMidBatchMem|TestMemListenerNames|TestCloseRacesAcceptMem|TestMemDialRacesClose|TestMemKillSeversPipes|TestSessionRetryablePipeErrors|TestConcurrentBlockingCalls|TestReportValidation|TestPushesKeepGoroutineCount|TestParkedNextsKeepGoroutineCount|TestTornNextLeavesConns|TestServerBadFrames|TestMemConnEnds|TestDistributedRefusesBadTimeScale)$' -count 20 -race
	echo "==> in-process control-plane stress under -race (a failed checkpoint save fails the run closed on both clocks; a round releases its waiter at its last push, leaving no goroutine; a wall-clock wait never ends before its target and a 50 µs one is not a timer tick late; on the virtual clock Fig. 12's five plans replay as the simulator does, bit-identically every run)"
	go test ./internal/testbed -run '^(TestRunFailsClosed|TestRoundGateClosesAtLastPush|TestSleepUntilWakesOnTime)$' -count 20 -race
	go test ./internal/experiments -run '^TestFig12VirtualMatchesSim$' -count 3 -race

	echo "==> 10 s fuzz smokes under -race (Hare, Hare-EA and OnlineHare vs the reference planner; every scheduler's plan validates; the simulator vs its reference scan and the in-process engine on virtual time; the control plane's one transition function; the journal's record and snapshot decoders; the wire's frame and message decoder; the WAL frame reader; the -fault-spec parser's Parse/String round trip; the plan-file loader; the JSONL event reader; the bench-output parser; the RNG source against math/rand's stream)"
	go test -race -run '^$' -fuzz FuzzOnlineMatchesReference -fuzztime 10s ./internal/sched/
	go test -race -run '^$' -fuzz FuzzSchedulersValidate -fuzztime 10s ./internal/sched/
	go test -race -run '^$' -fuzz FuzzSimMatchesReference -fuzztime 10s ./internal/sim/
	go test -race -run '^$' -fuzz FuzzCoordApply -fuzztime 10s ./internal/testbed/
	go test -race -run '^$' -fuzz FuzzJournalDecode -fuzztime 10s ./internal/rpcnet/
	go test -race -run '^$' -fuzz FuzzWireDecode -fuzztime 10s ./internal/rpcnet/
	go test -race -run '^$' -fuzz FuzzDirLogOpen -fuzztime 10s ./internal/store/
	go test -race -run '^$' -fuzz FuzzFaultsParse -fuzztime 10s ./internal/faults/
	go test -race -run '^$' -fuzz FuzzLoadSchedule -fuzztime 10s ./internal/core/
	go test -race -run '^$' -fuzz FuzzReadJSONL -fuzztime 10s ./internal/obs/
	go test -race -run '^$' -fuzz FuzzPerfParse -fuzztime 10s ./internal/obs/perf/
	go test -race -run '^$' -fuzz FuzzSourceMatchesMathRand -fuzztime 10s ./internal/stats/

	echo "==> make loc (non-test Go lines per package: the size of every PR in the CI log)"
	make -s loc
}

chaos() {
	echo "==> harechaos seed matrix (docs/ROBUSTNESS.md)"
	go run ./cmd/harechaos -seeds 20 -start 1
}

perf() {
	echo "==> perf gate (hareperf: absolute allocation caps + intra-run ratio caps, docs/PERFORMANCE.md)"
	make bench-gate
}

case "${1:-all}" in
tests | chaos | perf) "$1" ;;
all)
	tests
	chaos
	perf
	;;
*)
	echo "usage: $0 [tests|chaos|perf]" >&2
	exit 2
	;;
esac

echo "OK"
