package testbed

import (
	"math"
	"testing"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/faults"
	"hare/internal/model"
	"hare/internal/sched"
	"hare/internal/sim"
	"hare/internal/switching"
	"hare/internal/trace"
	"hare/internal/workload"
)

func smallWorkload(t *testing.T, jobs int, seed int64) (*core.Instance, *cluster.Cluster, []*model.Model) {
	t.Helper()
	cl := cluster.New([]cluster.Spec{
		{Type: cluster.V100, Count: 2}, {Type: cluster.T4, Count: 1}, {Type: cluster.K80, Count: 1},
	}, 4)
	arr := trace.Arrivals(jobs, 60, seed)
	specs := workload.Generate(workload.Options{
		NumJobs: jobs, Arrivals: arr, RoundsScale: 0.05, MaxSync: cl.Size(), Seed: seed,
	})
	in, models, err := workload.BuildInstance(specs, cl, 0)
	if err != nil {
		t.Fatal(err)
	}
	return in, cl, models
}

// TestTestbedMatchesSimulator is the paper's fidelity check: the
// testbed's measured weighted JCT should track the simulator within a
// few percent (the paper reports ≤5 %; we allow slack for wall-clock
// jitter on loaded machines).
func TestTestbedMatchesSimulator(t *testing.T) {
	in, cl, models := smallWorkload(t, 6, 3)
	plan, err := sched.NewHare().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := sim.Run(in, plan, cl, models, sim.Options{Scheme: switching.Hare, Speculative: true})
	if err != nil {
		t.Fatal(err)
	}
	tbRes, err := Run(in, plan, cl, models, Options{
		TimeScale: 1.5e-3, Scheme: switching.Hare, Speculative: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	gap := math.Abs(tbRes.WeightedJCT-simRes.WeightedJCT) / tbRes.WeightedJCT
	t.Logf("sim %.1f vs testbed %.1f (gap %.2f%%)", simRes.WeightedJCT, tbRes.WeightedJCT, gap*100)
	if gap > fidelityGapLimit {
		t.Errorf("testbed-vs-simulator gap %.1f%% exceeds %.0f%%", gap*100, fidelityGapLimit*100)
	}
	if len(tbRes.Trace.Records) != in.NumTasks() {
		t.Errorf("testbed recorded %d tasks, want %d", len(tbRes.Trace.Records), in.NumTasks())
	}
}

// TestTrainingConverges confirms the SGD substrate is real: every
// job's held-out loss decreases over its rounds.
func TestTrainingConverges(t *testing.T) {
	in, cl, models := smallWorkload(t, 4, 9)
	plan, err := sched.NewHare().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(in, plan, cl, models, Options{})
	if err != nil {
		t.Fatal(err)
	}
	improved := 0
	for j := range in.Jobs {
		if res.FinalLosses[j] < res.InitialLosses[j] {
			improved++
		}
	}
	if improved < len(in.Jobs)*3/4 {
		t.Errorf("only %d/%d jobs improved their loss", improved, len(in.Jobs))
	}
}

// TestRoundBarrierEnforced drives a multi-round gang job and checks
// that no round-r+1 task starts before round r completes in the
// measured trace.
func TestRoundBarrierEnforced(t *testing.T) {
	in, cl, models := smallWorkload(t, 5, 17)
	plan, err := sched.NewSRTF().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(in, plan, cl, models, Options{})
	if err != nil {
		t.Fatal(err)
	}
	roundEnd := make(map[core.JobID]map[int]float64)
	for _, r := range res.Trace.Records {
		if roundEnd[r.Task.Job] == nil {
			roundEnd[r.Task.Job] = make(map[int]float64)
		}
		if e := r.End(); e > roundEnd[r.Task.Job][r.Task.Round] {
			roundEnd[r.Task.Job][r.Task.Round] = e
		}
	}
	const tol = 1e-6
	for _, r := range res.Trace.Records {
		if r.Task.Round == 0 {
			continue
		}
		if prev := roundEnd[r.Task.Job][r.Task.Round-1]; r.Start < prev-tol {
			t.Errorf("task %v started at %.4f before round %d ended at %.4f",
				r.Task, r.Start, r.Task.Round-1, prev)
		}
	}
}

// TestFaultInjectionRecovers drives the testbed with a 20 % per-task
// fault rate and checks that every job still completes correctly,
// barriers hold, and the lost attempts both were counted and cost
// wall-clock time.
func TestFaultInjectionRecovers(t *testing.T) {
	in, cl, models := smallWorkload(t, 5, 23)
	plan, err := sched.NewHare().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Run(in, plan, cl, models, Options{TimeScale: 2e-4})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := Run(in, plan, cl, models, Options{
		TimeScale: 2e-4, Faults: &faults.Plan{Rate: 0.2, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Retries == 0 {
		t.Fatal("no retries at a 20% fault rate")
	}
	if len(faulty.Trace.Records) != in.NumTasks() {
		t.Errorf("faulty run recorded %d tasks, want %d", len(faulty.Trace.Records), in.NumTasks())
	}
	if faulty.Makespan <= clean.Makespan {
		t.Errorf("faults did not extend the makespan: %.1f vs %.1f", faulty.Makespan, clean.Makespan)
	}
	// Barriers still respected in the measured trace.
	roundEnd := make(map[core.JobID]map[int]float64)
	for _, r := range faulty.Trace.Records {
		if roundEnd[r.Task.Job] == nil {
			roundEnd[r.Task.Job] = make(map[int]float64)
		}
		if e := r.End(); e > roundEnd[r.Task.Job][r.Task.Round] {
			roundEnd[r.Task.Job][r.Task.Round] = e
		}
	}
	for _, r := range faulty.Trace.Records {
		if r.Task.Round > 0 && r.Start < roundEnd[r.Task.Job][r.Task.Round-1]-1e-6 {
			t.Errorf("task %v violated its barrier under faults", r.Task)
		}
	}
	// Training still converges: gradients recomputed from checkpoints.
	improved := 0
	for j := range in.Jobs {
		if faulty.FinalLosses[j] < faulty.InitialLosses[j] {
			improved++
		}
	}
	if improved < len(in.Jobs)/2 {
		t.Errorf("only %d/%d jobs improved under faults", improved, len(in.Jobs))
	}
}

// TestProblemGradientDeterministic: identical (round, index) yields
// identical batches.
func TestProblemGradientDeterministic(t *testing.T) {
	p := NewProblem(16, 4, 5)
	w := make([]float64, 16)
	for i := range w {
		w[i] = float64(i) * 0.1
	}
	g1 := p.Gradient(w, 3, 1)
	g2 := p.Gradient(w, 3, 1)
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatalf("gradient not deterministic at %d: %g vs %g", i, g1[i], g2[i])
		}
	}
	g3 := p.Gradient(w, 4, 1)
	same := true
	for i := range g1 {
		if g1[i] != g3[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different rounds produced identical batches")
	}
}

// TestSGDConvergesOnProblem runs plain SGD outside the testbed and
// checks approach to the generating parameters.
func TestSGDConvergesOnProblem(t *testing.T) {
	p := NewProblem(8, 16, 21)
	w := p.InitParams()
	d0 := paramDistance(w, p.truthVector())
	for r := 0; r < 200; r++ {
		ApplySGD(w, p.Gradient(w, r, 0), 0.1)
	}
	d1 := paramDistance(w, p.truthVector())
	if d1 > d0*0.2 {
		t.Errorf("SGD barely converged: distance %g -> %g", d0, d1)
	}
}

// TestProblemDrawsWithoutNewSources: a problem draws nothing until it
// is used, and then reseeds one generator — a gradient allocates its
// own two vectors and no random source (stats.New is three allocations,
// 4.9 KiB), and a loss after the first allocates nothing. An executor's
// problems share one generator, so all its jobs together cost one.
func TestProblemDrawsWithoutNewSources(t *testing.T) {
	p := NewProblem(32, 8, 3)
	if p.rng != nil || p.truth != nil || p.heldOut != nil {
		t.Fatal("NewProblem drew before first use")
	}
	w := p.InitParams()
	if n := testing.AllocsPerRun(20, func() { p.Gradient(w, 1, 2) }); n != 2 {
		t.Errorf("Gradient allocates %v times per call, want 2 (gradient and row)", n)
	}
	if n := testing.AllocsPerRun(20, func() { p.Loss(w) }); n != 0 {
		t.Errorf("Loss allocates %v times per call, want 0", n)
	}

	in := &core.Instance{NumGPUs: 1}
	for id := range 3 {
		in.Jobs = append(in.Jobs, &core.Job{ID: core.JobID(id), Weight: 1, Rounds: 1, Scale: 1})
		in.Train = append(in.Train, []float64{1})
		in.Sync = append(in.Sync, []float64{0})
	}
	e := newExecutor(RemoteExecutorConfig{Instance: in})
	w = e.probs[0].InitParams()
	for _, p := range e.probs {
		p.Gradient(w, 0, 0)
		if p.rng != e.probs[0].rng {
			t.Fatal("an executor's problems draw from different generators")
		}
	}
}
