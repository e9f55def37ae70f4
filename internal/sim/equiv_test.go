package sim

// Equivalence and golden-determinism tests for the incremental replay
// engine: Run (indexed-heap candidate tracking + memoized switching
// costs) must be byte-identical to RunReference (the original
// full-rescan loop), and both must keep reproducing the seed-42
// outputs captured from the pre-rewrite implementation.

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/faults"
	"hare/internal/gpumem"
	"hare/internal/model"
	"hare/internal/sched"
	"hare/internal/stats"
	"hare/internal/switching"
	"hare/internal/testbed"
	"hare/internal/trace"
	"hare/internal/workload"
)

// goldenWorkload reproduces hare.BuildWorkload(WorkloadConfig{Jobs:
// 40, Seed: 42, HorizonSeconds: 300, RoundsScale: 0.1}) on a 24-GPU
// high-heterogeneity fleet — the workload the golden values below
// were captured on (it is also BenchmarkSimulatorReplay's shape).
func goldenWorkload(t testing.TB) (*core.Instance, *cluster.Cluster, []*model.Model) {
	t.Helper()
	cl := cluster.Heterogeneous(cluster.HighHeterogeneity, 24)
	arrivals := trace.Arrivals(40, 300, 43)
	specs := workload.Generate(workload.Options{
		NumJobs:     40,
		Arrivals:    arrivals,
		BatchScale:  1,
		RoundsScale: 0.1,
		MaxSync:     cl.Size(),
		Seed:        44,
	})
	in, models, err := workload.BuildInstance(specs, cl, 45)
	if err != nil {
		t.Fatal(err)
	}
	return in, cl, models
}

// traceHash fingerprints every realized field of every task record,
// printed at full float64 precision, so any drift in the replay's
// arithmetic or ordering changes the hash.
func traceHash(tr *trace.Trace) uint64 {
	h := fnv.New64a()
	for _, r := range tr.Records {
		fmt.Fprintf(h, "%v|%d|%.17g|%.17g|%.17g|%.17g\n",
			r.Task, r.GPU, r.Start, r.Train, r.Sync, r.Switch)
	}
	return h.Sum64()
}

// equivOptions is the option matrix the engines are compared under:
// every feature that touches the inner loop (switching schemes,
// speculative memory, eviction policy, utilization binning, faults).
// "plain" replays without a cluster or models, so no switching is
// charged. A slice, not a map: trials must visit the option sets in
// one fixed order or the test itself becomes nondeterministic.
func equivOptions() []struct {
	name string
	opts Options
} {
	return []struct {
		name string
		opts Options
	}{
		{"plain", Options{}},
		{"default", Options{Scheme: switching.Default}},
		{"pipeswitch", Options{Scheme: switching.PipeSwitch}},
		{"hare", Options{Scheme: switching.Hare}},
		{"hare-spec", Options{Scheme: switching.Hare, Speculative: true}},
		{"hare-belady", Options{Scheme: switching.Hare, Speculative: true, MemPolicy: gpumem.Belady}},
		{"utilbins", Options{Scheme: switching.Hare, Speculative: true, UtilBins: 16}},
		{"all-features", Options{Scheme: switching.Hare, Speculative: true, MemPolicy: gpumem.Belady, UtilBins: 32,
			Faults: &faults.Plan{Rate: 0.1, Seed: 4}}},
		// Transient faults and stragglers live in the shared exec core,
		// so both engines must replay them bit-identically too.
		{"faults", Options{Scheme: switching.Hare, Speculative: true,
			Faults: &faults.Plan{Rate: 0.1, Seed: 7}}},
		{"faults-straggler", Options{Scheme: switching.Hare, Speculative: true,
			Faults: &faults.Plan{Rate: 0.2, Seed: 1, Stragglers: []faults.Straggler{{GPU: 0, Factor: 1.5}}}}},
	}
}

// TestRunMatchesReference compares the incremental engine against the
// reference scan on randomized instances under every option set: the
// full Result (trace included) must be deeply equal, bit for bit.
func TestRunMatchesReference(t *testing.T) {
	rng := stats.New(1234)
	zoo := model.Zoo()
	for trial := 0; trial < 25; trial++ {
		in := randomInstance(rng.Split())
		sub := cluster.Heterogeneous(cluster.HighHeterogeneity, in.NumGPUs)
		models := make([]*model.Model, len(in.Jobs))
		for j := range models {
			models[j] = zoo[(trial+j)%len(zoo)]
		}
		plan := planFor(t, in)
		for _, c := range equivOptions() {
			cl, ms := sub, models
			if c.name == "plain" {
				cl, ms = nil, nil
			}
			want, err := RunReference(in, plan, cl, ms, c.opts)
			if err != nil {
				t.Fatalf("trial %d %s: reference: %v", trial, c.name, err)
			}
			got, err := Run(in, plan, cl, ms, c.opts)
			if err != nil {
				t.Fatalf("trial %d %s: run: %v", trial, c.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s: incremental engine diverged from reference\n got: %+v\nwant: %+v",
					trial, c.name, got, want)
			}
		}
	}
}

// FuzzSimMatchesReference is TestRunMatchesReference as a fuzz target:
// the input draws randomInstance's seed and one byte whose remainder
// picks an equivOptions() set and whose quotient offsets the model zoo
// (TestRunMatchesReference's trial index), and Run must deep-equal
// RunReference. Where the in-process testbed models the option set (a
// cluster and its models, KeepLatest, no utilization series), its run
// on the virtual clock (TimeScale 0) must also match: weighted JCT,
// retries and every task's start and end within 1e-9. The corpus seeds
// with its first three trials under every option set.
func FuzzSimMatchesReference(f *testing.F) {
	opts := equivOptions()
	master := stats.New(1234)
	for trial := range 3 {
		seed := master.Int63() // what rng.Split() seeds trial `trial` with
		for c := range opts {
			f.Add(seed, uint8(trial*len(opts)+c))
		}
	}
	zoo := model.Zoo()
	f.Fuzz(func(t *testing.T, seed int64, pick uint8) {
		c, off := opts[int(pick)%len(opts)], int(pick)/len(opts)
		in := randomInstance(stats.New(seed))
		var cl *cluster.Cluster
		var models []*model.Model
		if c.name != "plain" {
			cl = cluster.Heterogeneous(cluster.HighHeterogeneity, in.NumGPUs)
			models = make([]*model.Model, len(in.Jobs))
			for j := range models {
				models[j] = zoo[(off+j)%len(zoo)]
			}
		}
		plan := planFor(t, in)
		want, err := RunReference(in, plan, cl, models, c.opts)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		got, err := Run(in, plan, cl, models, c.opts)
		if err != nil {
			t.Fatalf("%s: run: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: incremental engine diverged from reference\n got: %+v\nwant: %+v", c.name, got, want)
		}
		if cl == nil || c.opts.MemPolicy != gpumem.KeepLatest || c.opts.UtilBins > 0 {
			return
		}
		tb, err := testbed.Run(in, plan, cl, models, testbed.Options{
			Scheme: c.opts.Scheme, Speculative: c.opts.Speculative, Faults: c.opts.Faults,
		})
		if err != nil {
			t.Fatalf("%s: testbed: %v", c.name, err)
		}
		if math.Abs(tb.WeightedJCT-want.WeightedJCT) > 1e-9*math.Max(1, want.WeightedJCT) || tb.Retries != want.Retries {
			t.Fatalf("%s: virtual testbed WJCT %.17g with %d retries, simulator %.17g with %d",
				c.name, tb.WeightedJCT, tb.Retries, want.WeightedJCT, want.Retries)
		}
		simRec := make(map[core.TaskRef]trace.TaskRecord, len(want.Trace.Records))
		for _, r := range want.Trace.Records {
			simRec[r.Task] = r
		}
		for _, r := range tb.Trace.Records {
			w := simRec[r.Task]
			if tol := 1e-9 * math.Max(1, w.End()); math.Abs(r.Start-w.Start) > tol || math.Abs(r.End()-w.End()) > tol {
				t.Fatalf("%s: task %v ran [%.17g, %.17g] on the virtual testbed, [%.17g, %.17g] simulated",
					c.name, r.Task, r.Start, r.End(), w.Start, w.End())
			}
		}
	})
}

// TestRunMatchesReferenceAllSchedulers pins the equivalence on the
// golden workload across all five schedulers' plans — the shapes the
// evaluation figures replay.
func TestRunMatchesReferenceAllSchedulers(t *testing.T) {
	in, cl, models := goldenWorkload(t)
	for _, a := range sched.All() {
		plan, err := a.Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		scheme := switching.Default
		if a.Name() == "Hare" {
			scheme = switching.Hare
		}
		opts := Options{Scheme: scheme, Speculative: scheme == switching.Hare}
		want, err := RunReference(in, plan, cl, models, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(in, plan, cl, models, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: incremental engine diverged from reference", a.Name())
		}
	}
}

// golden values captured from the pre-rewrite simulator (commit
// a6d83ef) on the seed-42 workload: weighted JCT at full precision
// and an FNV-1a hash over every realized trace field. Both engines
// must keep reproducing them exactly.
var goldenSeed42 = map[string]struct {
	WeightedJCT float64
	TraceHash   uint64
}{
	"Hare":        {WeightedJCT: 28954.482652830477, TraceHash: 0xc87e1b6576ada40d},
	"Gavel_FIFO":  {WeightedJCT: 53144.681243714876, TraceHash: 0xbfc789f73aa7e882},
	"SRTF":        {WeightedJCT: 38147.792314787686, TraceHash: 0x9454be02020716fa},
	"Sched_Homo":  {WeightedJCT: 37733.070179670423, TraceHash: 0x67aeab182f4ca66a},
	"Sched_Allox": {WeightedJCT: 35386.501114969717, TraceHash: 0x64337612ef41c469},
}

func TestRunGoldenSeed42(t *testing.T) {
	in, cl, models := goldenWorkload(t)
	run := func(name string, opts Options) {
		for _, a := range sched.All() {
			plan, err := a.Schedule(in)
			if err != nil {
				t.Fatal(err)
			}
			o := opts
			if a.Name() == "Hare" {
				o.Scheme = switching.Hare
				o.Speculative = true
			}
			// Fixed engine order: ranging a map here would interleave
			// the two engines' error output nondeterministically.
			engines := []struct {
				name string
				run  func(*core.Instance, *core.Schedule, *cluster.Cluster, []*model.Model, Options) (*Result, error)
			}{
				{"Run", Run}, {"RunReference", RunReference},
			}
			for _, eng := range engines {
				engine, f := eng.name, eng.run
				res, err := f(in, plan, cl, models, o)
				if err != nil {
					t.Fatal(err)
				}
				want := goldenSeed42[a.Name()]
				if res.WeightedJCT != want.WeightedJCT {
					t.Errorf("%s/%s/%s: weighted JCT %.17g, golden %.17g",
						name, a.Name(), engine, res.WeightedJCT, want.WeightedJCT)
				}
				if h := traceHash(res.Trace); h != want.TraceHash {
					t.Errorf("%s/%s/%s: trace hash %#x, golden %#x",
						name, a.Name(), engine, h, want.TraceHash)
				}
			}
		}
	}
	run("base", Options{Scheme: switching.Default})
	run("utilbins", Options{Scheme: switching.Default, UtilBins: 32})
}
