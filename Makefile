GO ?= go

# Perf-gate knobs (docs/PERFORMANCE.md): per-benchmark budget,
# repetitions, default regression threshold, and the baseline archive.
# The budget is time-based on purpose: a fixed iteration count leaves
# the nanosecond-scale benchmarks at the mercy of timer noise.
BENCH_TIME ?= 300ms
BENCH_COUNT ?= 5
BENCH_THRESHOLD ?= 1.0
BENCH_BASE ?= bench/baseline.json

.PHONY: all build test vet lint race bench bench-compare bench-obs bench-clean bench-e2e chaos check fmt loc

all: build

build:
	$(GO) build ./...

# Tier-1 gate: vet, lint, build, and the full test suite.
test: vet lint build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# harelint: the determinism-and-simulated-time analysis suite
# (docs/STATIC_ANALYSIS.md). Gates on errors; add
# HARELINT_FLAGS="-lint-fail-on warning" to gate on warnings too.
lint:
	$(GO) run ./cmd/harelint $(HARELINT_FLAGS) ./...

race:
	$(GO) test -race ./...

# Full benchmark suite with allocation stats, archived under bench/
# as BENCH_<timestamp>_<commit>.json (docs/PERFORMANCE.md).
bench:
	./scripts/bench.sh

# Perf regression gate: run the gate benchmark subset and compare
# against the checked-in baseline. Non-zero exit on regression.
bench-compare:
	$(GO) run ./cmd/hareperf compare -base $(BENCH_BASE) -run \
		-benchtime $(BENCH_TIME) -count $(BENCH_COUNT) -threshold $(BENCH_THRESHOLD)

# Drop old benchmark archives, keeping the newest BENCH_KEEP runs per
# commit. baseline.json is never touched.
BENCH_KEEP ?= 3
bench-clean:
	$(GO) run ./cmd/hareperf prune -keep $(BENCH_KEEP)

# Observability overhead: the nil-recorder path (BenchmarkObsDisabled)
# must stay within noise of the uninstrumented BenchmarkSimulatorReplay.
bench-obs:
	$(GO) test -run '^$$' -bench 'BenchmarkSimulatorReplay|BenchmarkObs' -benchtime 10x .

# The end-to-end benchmark (bench/e2e/README.md, BENCHMARK.json): five
# workloads, end-to-end metrics; add `--trace 1` by hand for per-layer rows.
bench-e2e:
	$(GO) run ./bench/e2e --workload all --seed 1

# Crash-safety soak (docs/ROBUSTNESS.md): the deterministic harechaos
# seed matrix the CI chaos job runs. CHAOS_SEEDS/CHAOS_START tune it.
CHAOS_SEEDS ?= 20
CHAOS_START ?= 1
chaos:
	$(GO) run ./cmd/harechaos -seeds $(CHAOS_SEEDS) -start $(CHAOS_START)

check:
	./scripts/check.sh

fmt:
	gofmt -l -w .

# Non-test Go lines (wc -l: code, comments and blanks) per top-level
# package and in total, bench/e2e listed separately — the number ROADMAP
# item 4 is judged by.
loc:
	@find . -name '*.go' ! -name '*_test.go' | xargs wc -l | awk '$$2 != "total" { \
		n = split($$2, p, "/"); \
		pkg = n == 2 ? "." : (p[2] == "bench" ? "bench/e2e" : p[2] "/" p[3]); \
		lines[pkg] += $$1; if (pkg != "bench/e2e") total += $$1 } \
		END { for (pkg in lines) if (pkg != "bench/e2e") printf "%7d  %s\n", lines[pkg], pkg | "sort -k2"; close("sort -k2"); \
		printf "%7d  total (outside bench/e2e)\n%7d  bench/e2e\n", total, lines["bench/e2e"] }'
