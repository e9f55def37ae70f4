#!/bin/sh
# The pre-merge checks, in the three stages the CI jobs call:
#
#   scripts/check.sh          # all three
#   scripts/check.sh tests    # vet, harelint, build, go test -race ./... (incl. the knob,
#                             # dead-surface and observability censuses), a haresim -compare CLI
#                             # smoke, a haresim -save-plan/-load-plan round trip, ordering
#                             # stress, nine 10 s fuzz smokes, make loc
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

	echo "==> 10 s fuzz smokes under -race (Hare, Hare-EA and OnlineHare vs the reference planner; every scheduler's plan validates; the coordinator's one transition function; the journal's record and snapshot decoders; the WAL frame reader; the -fault-spec parser's Parse/String round trip; the plan-file loader; the JSONL event reader; the bench-output parser)"
	go test -race -run '^$' -fuzz FuzzOnlineMatchesReference -fuzztime 10s ./internal/sched/
	go test -race -run '^$' -fuzz FuzzSchedulersValidate -fuzztime 10s ./internal/sched/
	go test -race -run '^$' -fuzz FuzzCoordApply -fuzztime 10s ./internal/rpcnet/
	go test -race -run '^$' -fuzz FuzzJournalDecode -fuzztime 10s ./internal/rpcnet/
	go test -race -run '^$' -fuzz FuzzDirLogOpen -fuzztime 10s ./internal/store/
	go test -race -run '^$' -fuzz FuzzFaultsParse -fuzztime 10s ./internal/faults/
	go test -race -run '^$' -fuzz FuzzLoadSchedule -fuzztime 10s ./internal/core/
	go test -race -run '^$' -fuzz FuzzReadJSONL -fuzztime 10s ./internal/obs/
	go test -race -run '^$' -fuzz FuzzPerfParse -fuzztime 10s ./internal/obs/perf/

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
