package sim_test

// Sharded-replay equivalence tests. These live in an external test
// package because they build their multi-component workloads with
// internal/tenants, which itself imports sim.

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"testing"
	"time"

	"hare/internal/core"
	"hare/internal/faults"
	"hare/internal/gpumem"
	"hare/internal/sim"
	"hare/internal/switching"
	"hare/internal/tenants"
	"hare/internal/trace"
)

// shardedTraceHash mirrors the internal equivalence suite's trace
// fingerprint: every realized field at full float64 precision.
func shardedTraceHash(tr *trace.Trace) uint64 {
	h := fnv.New64a()
	for _, r := range tr.Records {
		fmt.Fprintf(h, "%v|%d|%.17g|%.17g|%.17g|%.17g\n",
			r.Task, r.GPU, r.Start, r.Train, r.Sync, r.Switch)
	}
	return h.Sum64()
}

func buildTenantsTrace(t testing.TB, cfg tenants.Config) *tenants.Trace {
	t.Helper()
	tr, err := tenants.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestShardedMatchesSerial replays a four-tenant trace under every
// option set — the shardable ones exercise the merge, the rest the
// silent serial fallback — and requires the Parallel result to be
// deeply equal to both the serial Run and the RunReference spec.
// "plain" replays without a cluster or models, so no switching is
// charged.
func TestShardedMatchesSerial(t *testing.T) {
	tr := buildTenantsTrace(t, tenants.Config{
		Tenants: 4, JobsPerTenant: 6, GPUsPerTenant: 6, RoundsScale: 0.05, Seed: 21,
	})
	cases := []struct {
		name string
		opts sim.Options
	}{
		{"plain", sim.Options{}},
		{"default", sim.Options{Scheme: switching.Default}},
		{"pipeswitch", sim.Options{Scheme: switching.PipeSwitch}},
		{"hare", sim.Options{Scheme: switching.Hare}},
		{"hare-spec", sim.Options{Scheme: switching.Hare, Speculative: true}},
		{"hare-belady", sim.Options{Scheme: switching.Hare, Speculative: true, MemPolicy: gpumem.Belady}},
		// Order-global accounting: these must take the serial
		// fallback and still match exactly.
		{"utilbins-fallback", sim.Options{Scheme: switching.Hare, Speculative: true, UtilBins: 16}},
		{"faults-fallback", sim.Options{Scheme: switching.Hare, Speculative: true,
			Faults: &faults.Plan{Rate: 0.1, Seed: 7}}},
	}
	for _, c := range cases {
		cl, models := tr.Cluster, tr.Models
		if c.name == "plain" {
			cl, models = nil, nil
		}
		serial, err := sim.Run(tr.Instance, tr.Schedule, cl, models, c.opts)
		if err != nil {
			t.Fatalf("%s: serial: %v", c.name, err)
		}
		spec, err := sim.RunReference(tr.Instance, tr.Schedule, cl, models, c.opts)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		popts := c.opts
		popts.Parallel = 4
		sharded, err := sim.Run(tr.Instance, tr.Schedule, cl, models, popts)
		if err != nil {
			t.Fatalf("%s: sharded: %v", c.name, err)
		}
		if !reflect.DeepEqual(sharded, serial) {
			t.Fatalf("%s: sharded result diverged from serial Run\n got WJCT %.17g hash %#x\nwant WJCT %.17g hash %#x",
				c.name, sharded.WeightedJCT, shardedTraceHash(sharded.Trace),
				serial.WeightedJCT, shardedTraceHash(serial.Trace))
		}
		if !reflect.DeepEqual(sharded, spec) {
			t.Fatalf("%s: sharded result diverged from RunReference", c.name)
		}
	}
}

// Golden values for the seed-42 default tenants trace (4 tenants ×
// 12 jobs on 4 × 8 GPUs) under Hare fast switching with speculative
// memory, captured from the serial engine at the introduction of
// sharded replay. Serial, sharded, and reference paths must all keep
// reproducing them exactly.
const (
	goldenTenantsWJCT = 29751.866199876193
	goldenTenantsHash = 0x63c9273f7f2c732c
)

func TestShardedGoldenSeed42(t *testing.T) {
	tr := buildTenantsTrace(t, tenants.Config{})
	opts := sim.Options{Scheme: switching.Hare, Speculative: true}
	runs := []struct {
		name string
		run  func() (*sim.Result, error)
	}{
		{"serial", func() (*sim.Result, error) {
			return sim.Run(tr.Instance, tr.Schedule, tr.Cluster, tr.Models, opts)
		}},
		{"sharded", func() (*sim.Result, error) {
			o := opts
			o.Parallel = 4
			return sim.Run(tr.Instance, tr.Schedule, tr.Cluster, tr.Models, o)
		}},
		{"reference", func() (*sim.Result, error) {
			return sim.RunReference(tr.Instance, tr.Schedule, tr.Cluster, tr.Models, opts)
		}},
	}
	for _, r := range runs {
		res, err := r.run()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if res.WeightedJCT != goldenTenantsWJCT {
			t.Errorf("%s: weighted JCT %.17g, golden %.17g", r.name, res.WeightedJCT, goldenTenantsWJCT)
		}
		if h := shardedTraceHash(res.Trace); h != goldenTenantsHash {
			t.Errorf("%s: trace hash %#x, golden %#x", r.name, h, goldenTenantsHash)
		}
	}
}

// TestShardedErrorMatchesSerial corrupts the schedule and checks the
// Parallel path surfaces the identical validation error the serial
// path derives (the sharded attempt falls back before replaying).
func TestShardedErrorMatchesSerial(t *testing.T) {
	tr := buildTenantsTrace(t, tenants.Config{
		Tenants: 2, JobsPerTenant: 3, GPUsPerTenant: 4, RoundsScale: 0.05, Seed: 5,
	})
	// Drop one placement: the schedule no longer covers every task.
	tr.Schedule.Place(core.TaskRef{Job: 2}, -1, 0)
	opts := sim.Options{Scheme: switching.Hare}
	_, serialErr := sim.Run(tr.Instance, tr.Schedule, tr.Cluster, tr.Models, opts)
	opts.Parallel = 4
	_, shardedErr := sim.Run(tr.Instance, tr.Schedule, tr.Cluster, tr.Models, opts)
	if serialErr == nil || shardedErr == nil {
		t.Fatalf("expected validation errors, got serial=%v sharded=%v", serialErr, shardedErr)
	}
	if serialErr.Error() != shardedErr.Error() {
		t.Fatalf("error mismatch:\nserial:  %v\nsharded: %v", serialErr, shardedErr)
	}
}

// TestShardedSpeedup measures the wall-clock win on a wider trace.
// It only runs on hosts with enough parallelism to make the
// comparison meaningful; the CI benchmark job tracks the ratio on
// reference hardware.
func TestShardedSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("GOMAXPROCS=%d < 4; sharded speedup needs real parallelism", runtime.GOMAXPROCS(0))
	}
	tr := buildTenantsTrace(t, tenants.Config{
		Tenants: 8, JobsPerTenant: 24, GPUsPerTenant: 8, RoundsScale: 0.4, Seed: 42,
	})
	opts := sim.Options{Scheme: switching.Hare, Speculative: true}
	measure := func(o sim.Options) (time.Duration, *sim.Result) {
		best := time.Duration(1<<63 - 1)
		var res *sim.Result
		for i := 0; i < 3; i++ {
			start := time.Now() //lint:allow walltime measuring real replay wall time, not simulated time
			r, err := sim.Run(tr.Instance, tr.Schedule, tr.Cluster, tr.Models, o)
			//lint:allow walltime measuring real replay wall time, not simulated time
			if d := time.Since(start); d < best {
				best = d
			}
			if err != nil {
				t.Fatal(err)
			}
			res = r
		}
		return best, res
	}
	serialT, serialRes := measure(opts)
	popts := opts
	popts.Parallel = -1
	shardedT, shardedRes := measure(popts)
	if !reflect.DeepEqual(serialRes, shardedRes) {
		t.Fatal("sharded result diverged from serial on the speedup trace")
	}
	speedup := float64(serialT) / float64(shardedT)
	t.Logf("serial %v, sharded %v, speedup %.2fx", serialT, shardedT, speedup)
	if speedup < 1.5 {
		t.Errorf("sharded replay speedup %.2fx below 1.5x on %d-way host",
			speedup, runtime.GOMAXPROCS(0))
	}
}
