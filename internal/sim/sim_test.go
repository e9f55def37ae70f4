package sim

import (
	"math"
	"strings"
	"testing"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/model"
	"hare/internal/sched"
	"hare/internal/stats"
	"hare/internal/switching"
)

func twoJobInstance() *core.Instance {
	return &core.Instance{
		NumGPUs: 2,
		Jobs: []*core.Job{
			{ID: 0, Name: "a", Weight: 1, Rounds: 2, Scale: 2},
			{ID: 1, Name: "b", Weight: 2, Arrival: 1, Rounds: 1, Scale: 1},
		},
		Train: [][]float64{{2, 3}, {1, 2}},
		Sync:  [][]float64{{0.5, 0.5}, {0.1, 0.1}},
	}
}

func planFor(t *testing.T, in *core.Instance) *core.Schedule {
	t.Helper()
	s, err := sched.NewHare().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestReplayMatchesPlanWithoutOverheads(t *testing.T) {
	in := twoJobInstance()
	plan := planFor(t, in)
	res, err := Run(in, plan, nil, nil, Options{DisableSwitching: true})
	if err != nil {
		t.Fatal(err)
	}
	wantComps := plan.JobCompletions(in)
	for j, c := range res.JobCompletion {
		if math.Abs(c-wantComps[j]) > 1e-9 {
			t.Errorf("job %d realized %g, planned %g", j, c, wantComps[j])
		}
	}
	if math.Abs(res.WeightedJCT-plan.WeightedJCT(in)) > 1e-9 {
		t.Errorf("weighted JCT %g vs plan %g", res.WeightedJCT, plan.WeightedJCT(in))
	}
	if res.TotalSwitch != 0 || res.SwitchCount != 0 {
		t.Error("switching charged despite DisableSwitching")
	}
}

func TestReplayRejectsInfeasiblePlan(t *testing.T) {
	in := twoJobInstance()
	bad := core.NewSchedule(in)
	for _, j := range in.Jobs {
		for r := 0; r < j.Rounds; r++ {
			for k := 0; k < j.Scale; k++ {
				bad.Place(core.TaskRef{Job: j.ID, Round: r, Index: k}, 0, 0) // everything overlapping at time 0
			}
		}
	}
	if _, err := Run(in, bad, nil, nil, Options{DisableSwitching: true}); err == nil ||
		!strings.Contains(err.Error(), "invalid plan") {
		t.Errorf("infeasible plan accepted: %v", err)
	}
}

func TestSwitchingChargedBetweenJobs(t *testing.T) {
	// Two single-task jobs back-to-back on one GPU: exactly two
	// inter-job transitions (cold start + switch).
	in := &core.Instance{
		NumGPUs: 1,
		Jobs: []*core.Job{
			{ID: 0, Name: "a", Weight: 1, Rounds: 1, Scale: 1},
			{ID: 1, Name: "b", Weight: 1, Rounds: 1, Scale: 1},
		},
		Train: [][]float64{{5}, {5}},
		Sync:  [][]float64{{0}, {0}},
	}
	plan := core.NewSchedule(in)
	plan.Place(core.TaskRef{Job: 0, Round: 0}, 0, 0)
	plan.Place(core.TaskRef{Job: 1, Round: 0}, 0, 5)
	cl := cluster.New([]cluster.Spec{{Type: cluster.V100, Count: 1}}, 1)
	models := []*model.Model{model.MustByName("ResNet50"), model.MustByName("VGG19")}

	res, err := Run(in, plan, cl, models, Options{Scheme: switching.PipeSwitch})
	if err != nil {
		t.Fatal(err)
	}
	if res.SwitchCount != 2 {
		t.Errorf("%d switches, want 2 (cold start + inter-job)", res.SwitchCount)
	}
	if res.TotalSwitch <= 0 {
		t.Error("no switching time charged")
	}
	// The realized completion is delayed by the switch.
	if res.JobCompletion[1] <= 10 {
		t.Errorf("job 1 completed at %g; switching not on the critical path", res.JobCompletion[1])
	}
}

func TestConsecutiveSameJobTasksFree(t *testing.T) {
	in := &core.Instance{
		NumGPUs: 1,
		Jobs:    []*core.Job{{ID: 0, Name: "a", Weight: 1, Rounds: 3, Scale: 1}},
		Train:   [][]float64{{2}},
		Sync:    [][]float64{{0}},
	}
	plan := core.NewSchedule(in)
	for r := 0; r < 3; r++ {
		plan.Place(core.TaskRef{Job: 0, Round: r}, 0, float64(r*2))
	}
	cl := cluster.New([]cluster.Spec{{Type: cluster.V100, Count: 1}}, 1)
	res, err := Run(in, plan, cl, []*model.Model{model.MustByName("FastGCN")}, Options{Scheme: switching.Default})
	if err != nil {
		t.Fatal(err)
	}
	if res.SwitchCount != 1 {
		t.Errorf("%d switches, want only the cold start", res.SwitchCount)
	}
}

func TestSpeculativeMemoryReducesStall(t *testing.T) {
	// Two jobs alternating on one GPU: speculative memory should turn
	// the later switches into residency hits.
	const rounds = 6
	in := &core.Instance{NumGPUs: 1}
	models := []*model.Model{model.MustByName("GraphSAGE"), model.MustByName("FastGCN")}
	for i := range models {
		in.Jobs = append(in.Jobs, &core.Job{ID: core.JobID(i), Name: "x", Weight: 1, Rounds: rounds, Scale: 1})
		in.Train = append(in.Train, []float64{1})
		in.Sync = append(in.Sync, []float64{0})
	}
	plan := core.NewSchedule(in)
	tt := 0.0
	for r := 0; r < rounds; r++ {
		for j := range models {
			plan.Place(core.TaskRef{Job: core.JobID(j), Round: r}, 0, tt)
			tt += 1
		}
	}
	cl := cluster.New([]cluster.Spec{{Type: cluster.V100, Count: 1}}, 1)
	with, err := Run(in, plan, cl, models, Options{Scheme: switching.Hare, Speculative: true})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Run(in, plan, cl, models, Options{Scheme: switching.Hare})
	if err != nil {
		t.Fatal(err)
	}
	if with.ResidencyHits == 0 {
		t.Error("no residency hits in an alternation that fits in memory")
	}
	if with.TotalSwitch >= without.TotalSwitch {
		t.Errorf("speculative stall %.5f not below %.5f", with.TotalSwitch, without.TotalSwitch)
	}
}

func TestJitterPreservesFeasibilityAndChangesTimes(t *testing.T) {
	rng := stats.New(71)
	for trial := 0; trial < 20; trial++ {
		in := randomInstance(rng.Split())
		plan := planFor(t, in)
		base, err := Run(in, plan, nil, nil, Options{DisableSwitching: true})
		if err != nil {
			t.Fatal(err)
		}
		jit, err := Run(in, plan, nil, nil, Options{DisableSwitching: true, JitterFrac: 0.05, Seed: 1})
		if err != nil {
			t.Fatalf("trial %d: jittered replay failed: %v", trial, err)
		}
		if jit.WeightedJCT == base.WeightedJCT {
			t.Error("jitter had no effect")
		}
		// Realized barriers still respected.
		assertBarriers(t, in, jit)
	}
}

func assertBarriers(t *testing.T, in *core.Instance, res *Result) {
	t.Helper()
	roundEnd := make(map[core.JobID]map[int]float64)
	for _, r := range res.Trace.Records {
		if roundEnd[r.Task.Job] == nil {
			roundEnd[r.Task.Job] = make(map[int]float64)
		}
		if e := r.End(); e > roundEnd[r.Task.Job][r.Task.Round] {
			roundEnd[r.Task.Job][r.Task.Round] = e
		}
	}
	for _, r := range res.Trace.Records {
		if r.Task.Round > 0 && r.Start < roundEnd[r.Task.Job][r.Task.Round-1]-1e-9 {
			t.Errorf("task %v starts before its barrier", r.Task)
		}
		if r.Start < in.Jobs[r.Task.Job].Arrival-1e-9 {
			t.Errorf("task %v starts before arrival", r.Task)
		}
	}
}

func TestUtilizationBounds(t *testing.T) {
	rng := stats.New(73)
	for trial := 0; trial < 10; trial++ {
		in := randomInstance(rng.Split())
		plan := planFor(t, in)
		res, err := Run(in, plan, nil, nil, Options{DisableSwitching: true, UtilBins: 16})
		if err != nil {
			t.Fatal(err)
		}
		for m, u := range res.Utilization {
			if u < 0 || u > 1+1e-9 {
				t.Errorf("GPU %d utilization %g", m, u)
			}
		}
		for _, series := range res.UtilSeries {
			if len(series) != 16 {
				t.Fatalf("series has %d bins", len(series))
			}
			for _, v := range series {
				if v < 0 || v > 1+1e-9 {
					t.Errorf("bin value %g", v)
				}
			}
		}
		// Busy seconds equal the summed train times.
		var busy, train float64
		for _, b := range res.BusySeconds {
			busy += b
		}
		for _, r := range res.Trace.Records {
			train += r.Train
		}
		if math.Abs(busy-train) > 1e-6 {
			t.Errorf("busy %.4f != trace train %.4f", busy, train)
		}
	}
}

func TestHostAwareSyncShrinksSameHostSync(t *testing.T) {
	// One 2-task job. Same-host fleet: both workers share the PS's
	// machine, so realized sync shrinks by network/intra ratio.
	// Split fleet: the second worker pays the full network sync.
	in := &core.Instance{
		NumGPUs: 2,
		Jobs:    []*core.Job{{ID: 0, Name: "j", Weight: 1, Rounds: 1, Scale: 2}},
		Train:   [][]float64{{4, 4}},
		Sync:    [][]float64{{1, 1}},
	}
	plan := core.NewSchedule(in)
	plan.Place(core.TaskRef{Job: 0, Round: 0, Index: 0}, 0, 0)
	plan.Place(core.TaskRef{Job: 0, Round: 0, Index: 1}, 1, 0)
	models := []*model.Model{model.MustByName("ResNet50")}

	sameHost := cluster.New([]cluster.Spec{{Type: cluster.V100, Count: 2}}, 2)
	split := cluster.New([]cluster.Spec{{Type: cluster.V100, Count: 2}}, 1)

	runOn := func(cl *cluster.Cluster) *Result {
		res, err := Run(in, plan, cl, models, Options{
			DisableSwitching: true, HostAwareSync: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	same := runOn(sameHost)
	far := runOn(split)
	if same.JobCompletion[0] >= far.JobCompletion[0] {
		t.Errorf("same-host sync (%.3f) not faster than cross-host (%.3f)",
			same.JobCompletion[0], far.JobCompletion[0])
	}
	// Cross-host: the off-PS worker keeps the full 1 s sync → C = 5.
	if math.Abs(far.JobCompletion[0]-5) > 1e-9 {
		t.Errorf("cross-host completion %.3f, want 5", far.JobCompletion[0])
	}
	// Same-host: both workers sync at the intra-host rate.
	ratio := sameHost.NetworkBps / sameHost.IntraHostBps
	if want := 4 + ratio; math.Abs(same.JobCompletion[0]-want) > 1e-9 {
		t.Errorf("same-host completion %.3f, want %.3f", same.JobCompletion[0], want)
	}
}

func TestDimensionMismatches(t *testing.T) {
	in := twoJobInstance()
	plan := planFor(t, in)
	cl := cluster.New([]cluster.Spec{{Type: cluster.V100, Count: 3}}, 1)
	if _, err := Run(in, plan, cl, nil, Options{}); err == nil {
		t.Error("cluster size mismatch accepted")
	}
	cl2 := cluster.New([]cluster.Spec{{Type: cluster.V100, Count: 2}}, 1)
	if _, err := Run(in, plan, cl2, []*model.Model{model.MustByName("VGG19")}, Options{}); err == nil {
		t.Error("model count mismatch accepted")
	}
}

func randomInstance(rng *stats.RNG) *core.Instance {
	nm := 1 + rng.Intn(4)
	nj := 1 + rng.Intn(5)
	in := &core.Instance{NumGPUs: nm}
	for j := 0; j < nj; j++ {
		in.Jobs = append(in.Jobs, &core.Job{
			ID: core.JobID(j), Name: "r", Weight: rng.Uniform(0.5, 3),
			Arrival: rng.Uniform(0, 10),
			Rounds:  1 + rng.Intn(4), Scale: 1 + rng.Intn(nm),
		})
		tr := make([]float64, nm)
		sy := make([]float64, nm)
		for m := 0; m < nm; m++ {
			tr[m] = rng.Uniform(0.5, 5)
			sy[m] = rng.Uniform(0, 1)
		}
		in.Train = append(in.Train, tr)
		in.Sync = append(in.Sync, sy)
	}
	return in
}
