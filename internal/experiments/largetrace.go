package experiments

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strconv"
	"time"

	"hare/internal/obs/perf"
	"hare/internal/sim"
	"hare/internal/switching"
	"hare/internal/tenants"
	"hare/internal/trace"
)

// largeTraceTenants is the number of independent tenants, and so the
// most workers a sharded replay of the trace can use.
const largeTraceTenants = 8

// BuildLargeTrace scales a Config onto a multi-tenant replay trace:
// the configured job and GPU budgets are split evenly across
// largeTraceTenants mutually independent tenants, each planned by Hare
// on its private partition. The merged trace decomposes into one
// component per tenant, which is the input shape sim.Options.Parallel
// replays concurrently.
func BuildLargeTrace(cfg Config) (*tenants.Trace, error) {
	cfg = cfg.Defaults()
	if cfg.Jobs < largeTraceTenants || cfg.GPUs < largeTraceTenants {
		return nil, fmt.Errorf("experiments: %d jobs on %d GPUs cannot split across %d tenants",
			cfg.Jobs, cfg.GPUs, largeTraceTenants)
	}
	return tenants.Build(tenants.Config{
		Tenants:        largeTraceTenants,
		JobsPerTenant:  cfg.Jobs / largeTraceTenants,
		GPUsPerTenant:  cfg.GPUs / largeTraceTenants,
		HorizonSeconds: cfg.HorizonSeconds,
		RoundsScale:    cfg.RoundsScale,
		Seed:           cfg.Seed,
	})
}

// largeTraceTables builds a multi-tenant trace, replays it serially and
// sharded, and reports the wall-clock ratio. The replays must agree
// bit-for-bit — weighted JCT compared exactly and the full trace
// fingerprinted — so the speedup column can never hide a divergence.
func largeTraceTables(cfg Config) ([]Table, error) {
	// perf.Stopwatch because this package may not read the wall clock
	// itself (harelint's walltime policy).
	sw := perf.StartStopwatch()
	tr, err := BuildLargeTrace(cfg)
	if err != nil {
		return nil, err
	}
	build := sw.Seconds()

	opts := sim.Options{Scheme: switching.Hare, Speculative: true, Seed: cfg.Seed}
	sw = perf.StartStopwatch()
	serial, err := sim.Run(tr.Instance, tr.Schedule, tr.Cluster, tr.Models, opts)
	if err != nil {
		return nil, err
	}
	serialTime := sw.Seconds()

	opts.Parallel = -1
	sw = perf.StartStopwatch()
	sharded, err := sim.Run(tr.Instance, tr.Schedule, tr.Cluster, tr.Models, opts)
	if err != nil {
		return nil, err
	}
	shardedTime := sw.Seconds()

	if math.Float64bits(serial.WeightedJCT) != math.Float64bits(sharded.WeightedJCT) {
		return nil, fmt.Errorf("largetrace: sharded WJCT %.17g != serial %.17g", sharded.WeightedJCT, serial.WeightedJCT)
	}
	hash := replayHash(serial.Trace)
	if got := replayHash(sharded.Trace); got != hash {
		return nil, fmt.Errorf("largetrace: sharded trace hash %#x != serial %#x", got, hash)
	}
	ms := func(s float64) string {
		return time.Duration(s * float64(time.Second)).Round(time.Millisecond).String()
	}
	return []Table{{
		Header: []string{"tenants", "jobs", "gpus", "tasks", "build", "serial", "sharded", "speedup", "weighted JCT"},
		Rows: [][]string{{
			strconv.Itoa(largeTraceTenants), strconv.Itoa(tr.NumJobs()), strconv.Itoa(tr.Instance.NumGPUs),
			strconv.Itoa(len(serial.Trace.Records)), ms(build), ms(serialTime), ms(shardedTime),
			fmt.Sprintf("%.2fx", serialTime/shardedTime), num(serial.WeightedJCT),
		}},
		Notes: []string{fmt.Sprintf("replays agree bit-for-bit (trace hash %#x, GOMAXPROCS=%d)", hash, runtime.GOMAXPROCS(0))},
	}}, nil
}

// replayHash fingerprints every realized field of a replay trace at
// full float64 precision (the same digest the equivalence tests pin).
func replayHash(tr *trace.Trace) uint64 {
	h := fnv.New64a()
	for _, r := range tr.Records {
		fmt.Fprintf(h, "%v|%d|%.17g|%.17g|%.17g|%.17g\n",
			r.Task, r.GPU, r.Start, r.Train, r.Sync, r.Switch)
	}
	return h.Sum64()
}
