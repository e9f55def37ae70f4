package critpath_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"hare/internal/core"
	"hare/internal/faults"
	"hare/internal/obs"
	"hare/internal/obs/critpath"
	"hare/internal/obs/span"
	"hare/internal/rpcnet"
	"hare/internal/sim"
	"hare/internal/switching"
	"hare/internal/testbed"
	"hare/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

func goldenOpts() sim.Options {
	return sim.Options{Scheme: switching.Hare, Speculative: true}
}

// checkGolden byte-compares got against the named golden file,
// rewriting it under -update. On mismatch the actual bytes are dumped
// into HARE_ARTIFACT_DIR (when set) so CI uploads them.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		if dir := os.Getenv("HARE_ARTIFACT_DIR"); dir != "" {
			out := filepath.Join(dir, "actual_"+name)
			if err := os.MkdirAll(dir, 0o755); err == nil {
				if err := os.WriteFile(out, got, 0o644); err == nil {
					t.Logf("actual bytes written to %s", out)
				}
			}
		}
		t.Fatalf("%s differs from golden (regenerate with -update)", name)
	}
}

// TestGoldenSeed42Attribution snapshots the canonical span tree and
// attribution of the seed-42 generated workload. Go's shortest-float
// JSON round-trips exactly, so this pins every bucket bit-for-bit;
// combined with TestRunMatchesReferenceAttribution it is the
// byte-identical Run-vs-RunReference acceptance criterion.
func TestGoldenSeed42Attribution(t *testing.T) {
	in, plan, cl, models := generatedCase(t, 12, 42)
	tree, rep, err := critpath.PlanAttribution(in, plan, cl, models, goldenOpts())
	if err != nil {
		t.Fatal(err)
	}
	treeJSON, err := json.MarshalIndent(tree, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	repJSON, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "spantree_seed42.golden.json", append(treeJSON, '\n'))
	checkGolden(t, "attrib_seed42.golden.json", append(repJSON, '\n'))
}

// TestGoldenSeed42AttributionMigrated is the deterministic fault
// golden: a permanent GPU failure mid-run with replanned residual.
func TestGoldenSeed42AttributionMigrated(t *testing.T) {
	in, plan, cl, models := generatedCase(t, 8, 42)
	opts := goldenOpts()
	opts.Faults = &faults.Plan{Failures: []faults.GPUFailure{{GPU: 1, Time: plan.Makespan(in) / 3}}}
	tree, rep, err := critpath.PlanAttribution(in, plan, cl, models, opts)
	if err != nil {
		t.Fatal(err)
	}
	migrated := false
	for _, s := range tree.Spans {
		if s.Kind == span.KindTask && s.Migrated {
			migrated = true
		}
	}
	if !migrated {
		t.Fatal("golden fault case migrated nothing")
	}
	repJSON, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "attrib_seed42_migrated.golden.json", append(repJSON, '\n'))
}

// realizedSequences reconstructs each GPU's executed task order from a
// trace.
func realizedSequences(tr *trace.Trace, numGPUs int) [][]core.TaskRef {
	recs := append([]trace.TaskRecord(nil), tr.Records...)
	out := make([][]core.TaskRef, numGPUs)
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Start != recs[j].Start {
			return recs[i].Start < recs[j].Start
		}
		a, b := recs[i].Task, recs[j].Task
		if a.Job != b.Job {
			return a.Job < b.Job
		}
		if a.Round != b.Round {
			return a.Round < b.Round
		}
		return a.Index < b.Index
	})
	for _, r := range recs {
		out[r.GPU] = append(out[r.GPU], r.Task)
	}
	return out
}

func sequencesEqual(a, b [][]core.TaskRef) error {
	if len(a) != len(b) {
		return fmt.Errorf("gpu count %d vs %d", len(a), len(b))
	}
	for g := range a {
		if len(a[g]) != len(b[g]) {
			return fmt.Errorf("gpu %d ran %d tasks, plan has %d", g, len(a[g]), len(b[g]))
		}
		for i := range a[g] {
			if a[g][i] != b[g][i] {
				return fmt.Errorf("gpu %d position %d: ran %v, plan %v", g, i, a[g][i], b[g][i])
			}
		}
	}
	return nil
}

// placementsEqual checks each GPU ran exactly the plan's task set,
// ignoring order: the distributed dispatcher may legally hand out a
// later queued task while an earlier one is barrier-blocked.
func placementsEqual(a, b [][]core.TaskRef) error {
	if len(a) != len(b) {
		return fmt.Errorf("gpu count %d vs %d", len(a), len(b))
	}
	key := func(t core.TaskRef) string { return fmt.Sprintf("j%d/r%d/t%d", t.Job, t.Round, t.Index) }
	for g := range a {
		as := make([]string, len(a[g]))
		for i, t := range a[g] {
			as[i] = key(t)
		}
		bs := make([]string, len(b[g]))
		for i, t := range b[g] {
			bs[i] = key(t)
		}
		sort.Strings(as)
		sort.Strings(bs)
		if len(as) != len(bs) {
			return fmt.Errorf("gpu %d ran %d tasks, plan has %d", g, len(as), len(bs))
		}
		for i := range as {
			if as[i] != bs[i] {
				return fmt.Errorf("gpu %d task set differs: ran %s, plan %s", g, as[i], bs[i])
			}
		}
	}
	return nil
}

// dumpEngineArtifacts writes one engine's chrome trace (with nested
// span slices) and attribution report into HARE_ARTIFACT_DIR, so a CI
// failure of the equivalence suite ships the evidence.
func dumpEngineArtifacts(t *testing.T, name string, events []obs.Event, tree *span.Tree, rep *critpath.Report) {
	t.Helper()
	dir := os.Getenv("HARE_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	var spans []obs.ChromeSpan
	if tree != nil {
		spans = span.ChromeSpans(tree)
	}
	tracePath := filepath.Join(dir, name+"_trace.json")
	if err := obs.SaveChromeTraceSpans(tracePath, events, spans); err == nil {
		t.Logf("%s chrome trace written to %s", name, tracePath)
	}
	if rep != nil {
		if b, err := json.MarshalIndent(rep, "", " "); err == nil {
			attribPath := filepath.Join(dir, name+"_attrib.json")
			if os.WriteFile(attribPath, b, 0o644) == nil {
				t.Logf("%s attribution written to %s", name, attribPath)
			}
		}
	}
}

// TestThreeEngineAttribution pins the cross-engine guarantee for the
// seed-42 workload:
//
//  1. every engine realizes the plan's placement (sim and testbed the
//     exact per-GPU order too; the distributed dispatcher may reorder
//     around barrier-blocked queue entries), so the canonical
//     (replayed) attribution of the run is the same bytes for sim,
//     testbed, and distributed;
//  2. every engine's *measured* event stream — simulated clock or wall
//     clock — yields an attribution whose per-job buckets sum to that
//     engine's realized completions within 1e-9.
func TestThreeEngineAttribution(t *testing.T) {
	in, plan, cl, models := generatedCase(t, 5, 42)
	opts := goldenOpts()
	planSeqs := plan.Sequences(in.NumGPUs)

	_, canonRep, err := critpath.PlanAttribution(in, plan, cl, models, opts)
	if err != nil {
		t.Fatal(err)
	}
	canonJSON, err := json.Marshal(canonRep)
	if err != nil {
		t.Fatal(err)
	}

	checkEngine := func(name string, events []obs.Event, tr *trace.Trace, completions []float64, wjct float64,
		match func(a, b [][]core.TaskRef) error) {
		t.Helper()
		var tree *span.Tree
		var rep *critpath.Report
		defer func() {
			if t.Failed() {
				dumpEngineArtifacts(t, name, events, tree, rep)
			}
		}()
		if err := match(realizedSequences(tr, in.NumGPUs), planSeqs); err != nil {
			t.Fatalf("%s diverged from plan: %v", name, err)
		}
		var err error
		tree, err = span.Build(events)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep, err = critpath.Analyze(tree, in, cl)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertSums(t, rep, completions, wjct)
		// Since the engine realized the plan, its canonical
		// attribution is PlanAttribution of the same plan — assert the
		// bytes match the sim-derived canonical report.
		_, engCanon, err := critpath.PlanAttribution(in, plan, cl, models, opts)
		if err != nil {
			t.Fatalf("%s canonical: %v", name, err)
		}
		engJSON, err := json.Marshal(engCanon)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(engJSON, canonJSON) {
			t.Fatalf("%s canonical attribution bytes differ", name)
		}
	}

	// Engine 1: simulator.
	simCollect := obs.NewCollectSink()
	simOpts := opts
	simOpts.Recorder = obs.NewRecorder(simCollect)
	simRes, err := sim.Run(in, plan, cl, models, simOpts)
	if err != nil {
		t.Fatal(err)
	}
	checkEngine("sim", simCollect.Events(), simRes.Trace, simRes.JobCompletion, simRes.WeightedJCT, sequencesEqual)

	// Engine 2: in-process testbed on a scaled wall clock.
	tbCollect := obs.NewCollectSink()
	tbRes, err := testbed.Run(in, plan, cl, models, testbed.Options{
		TimeScale: 1e-4, Recorder: obs.NewRecorder(tbCollect),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkEngine("testbed", tbCollect.Events(), tbRes.Trace, tbRes.JobCompletion, tbRes.WeightedJCT, sequencesEqual)

	// Engine 3: distributed control plane with one executor per GPU.
	dCollect := obs.NewCollectSink()
	srv, addr, wait, err := rpcnet.ServeDistributed("127.0.0.1:0", in, plan, cl, models, rpcnet.DistributedOptions{
		TimeScale: 1e-3,
		Recorder:  obs.NewRecorder(dCollect),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for g := 0; g < cl.Size(); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if err := rpcnet.RunExecutorOpts(addr, g, rpcnet.ExecutorOptions{}); err != nil {
				t.Errorf("executor %d: %v", g, err)
			}
		}(g)
	}
	dRes, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	checkEngine("distributed", dCollect.Events(), dRes.Trace, dRes.JobCompletion, dRes.WeightedJCT, placementsEqual)
}

// TestDistributedMigratedAttribution is the fault-injection case on
// the real control plane: an executor crash mid-run, lease detection,
// and residual replanning. The migrated task shows up as sibling
// attempts (stranded marker on the dead GPU, re-execution on a
// survivor) and the measured attribution still telescopes to the
// realized completions.
func TestDistributedMigratedAttribution(t *testing.T) {
	in, plan, cl, models := generatedCase(t, 5, 42)
	crashAt := plan.Makespan(in) / 3
	collect := obs.NewCollectSink()
	srv, addr, wait, err := rpcnet.ServeDistributed("127.0.0.1:0", in, plan, cl, models, rpcnet.DistributedOptions{
		TimeScale:         1e-3,
		Faults:            &faults.Plan{Failures: []faults.GPUFailure{{GPU: 1, Time: crashAt, Crash: true}}},
		HeartbeatInterval: 5 * time.Millisecond,
		LeaseTimeout:      60 * time.Millisecond,
		Recorder:          obs.NewRecorder(collect),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for g := 0; g < cl.Size(); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// The crashed executor's error is expected.
			_ = rpcnet.RunExecutorOpts(addr, g, rpcnet.ExecutorOptions{})
		}(g)
	}
	res, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if res.TasksMigrated == 0 {
		t.Skip("lease timing migrated nothing this run; structural case covered by sim goldens")
	}

	tree, err := span.Build(collect.Events())
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	markers, migratedAttempts := 0, 0
	for _, s := range tree.Spans {
		if s.Kind != span.KindTask {
			continue
		}
		if s.Attempt < 0 {
			markers++
			if s.GPU != 1 {
				t.Errorf("stranded marker on GPU %d, want crashed GPU 1", s.GPU)
			}
		} else if s.Migrated {
			migratedAttempts++
			if s.GPU == 1 {
				t.Errorf("migrated attempt still on crashed GPU: %+v", s)
			}
			if s.From != 1 {
				t.Errorf("migrated attempt From = %d, want 1", s.From)
			}
		}
	}
	if markers == 0 || migratedAttempts == 0 {
		t.Fatalf("markers = %d, migrated attempts = %d; want both > 0", markers, migratedAttempts)
	}

	rep, err := critpath.Analyze(tree, in, cl)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-9
	for _, ja := range rep.Jobs {
		if d := math.Abs(bucketSum(ja.Buckets) - res.JobCompletion[ja.Job]); d > eps {
			t.Errorf("job %d bucket sum off realized completion by %.3g", ja.Job, d)
		}
	}
}
