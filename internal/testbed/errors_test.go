package testbed

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/sched"
)

func TestRunRejectsBadInputs(t *testing.T) {
	in, cl, models := smallWorkload(t, 3, 31)
	plan, err := sched.NewHare().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	// Infeasible plan.
	bad := core.NewSchedule(in)
	for _, j := range in.Jobs {
		for r := 0; r < j.Rounds; r++ {
			for k := 0; k < j.Scale; k++ {
				bad.Place(core.TaskRef{Job: j.ID, Round: r, Index: k}, 0, 0)
			}
		}
	}
	if _, err := Run(in, bad, cl, models, Options{TimeScale: 1e-4}); err == nil ||
		!strings.Contains(err.Error(), "invalid plan") {
		t.Errorf("infeasible plan accepted: %v", err)
	}
	// Cluster size mismatch.
	tiny := cluster.New([]cluster.Spec{{Type: cluster.V100, Count: 1}}, 1)
	if _, err := Run(in, plan, tiny, models, Options{TimeScale: 1e-4}); err == nil {
		t.Error("cluster mismatch accepted")
	}
	// Model count mismatch.
	if _, err := Run(in, plan, cl, models[:1], Options{TimeScale: 1e-4}); err == nil {
		t.Error("model mismatch accepted")
	}
}

func TestNewRemoteExecutorValidation(t *testing.T) {
	in, cl, models := smallWorkload(t, 2, 33)
	clock := NewClock(1e-3)
	_, client, err := NewControlPlane(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := RemoteExecutorConfig{
		GPU: 0, GPUType: cl.GPUs[0].Type,
		Instance: in, Models: models, Clock: clock, Sync: client,
	}
	if _, err := NewRemoteExecutor(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*RemoteExecutorConfig)
	}{
		{"nil instance", func(c *RemoteExecutorConfig) { c.Instance = nil }},
		{"nil clock", func(c *RemoteExecutorConfig) { c.Clock = nil }},
		{"nil sync", func(c *RemoteExecutorConfig) { c.Sync = nil }},
		{"bad gpu", func(c *RemoteExecutorConfig) { c.GPU = 99 }},
		{"short models", func(c *RemoteExecutorConfig) { c.Models = c.Models[:1] }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := NewRemoteExecutor(cfg); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestClockEpochAlignment(t *testing.T) {
	epoch := time.Now().Add(-100 * time.Millisecond)
	c := NewClockAt(epoch, 1e-3)
	if c.Epoch() != epoch {
		t.Error("epoch not preserved")
	}
	// 100 ms wall at 1e-3 scale ≈ 100 simulated seconds.
	if now := c.Now(); now < 90 || now > 200 {
		t.Errorf("clock at %g sim-seconds, want ≈100", now)
	}
	// Two clocks with one epoch agree.
	d := NewClockAt(epoch, 1e-3)
	if diff := c.Now() - d.Now(); diff > 1 || diff < -1 {
		t.Errorf("shared-epoch clocks diverge by %g", diff)
	}
}

func TestClockPanicsOnBadScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for zero scale")
		}
	}()
	NewClock(0)
}

func TestPSRejectsWrongRoundAndJob(t *testing.T) {
	job := &core.Job{ID: 0, Name: "j", Weight: 1, Rounds: 2, Scale: 1}
	in := &core.Instance{
		Jobs: []*core.Job{job}, NumGPUs: 1,
		Train: [][]float64{{1}}, Sync: [][]float64{{0}},
	}
	pss, _, err := NewControlPlane(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps := pss[0]
	grad := make([]float64, ProblemDim)
	// Round 1 before round 0 violates synchronization.
	if _, err := ps.Push(PushReport{Task: core.TaskRef{Job: 0, Round: 1}, TrainEnd: 1, Grad: grad}); err == nil {
		t.Error("out-of-round gradient accepted")
	}
	// Wrong job.
	if _, err := ps.Push(PushReport{Task: core.TaskRef{Job: 5, Round: 0}, TrainEnd: 1, Grad: grad}); err == nil {
		t.Error("wrong-job gradient accepted")
	}
	// Wrong round index queried.
	if _, err := ps.WaitRound(9); err == nil {
		t.Error("bogus round wait accepted")
	}
}

// TestRoundGateClosesAtLastPush: a round's gate closes when its last
// gradient lands and carries the realized end as a value — here 1000
// simulated seconds past the push, which at the clock scale of 1 a real
// run would use is a quarter of an hour nobody may sleep through inside
// the parameter server (the executor sleeps to the barrier itself). And
// a completed round leaves nothing behind: no goroutine, no timer.
func TestRoundGateClosesAtLastPush(t *testing.T) {
	const rounds, scale = 10, 2
	job := &core.Job{ID: 0, Name: "j", Weight: 1, Rounds: rounds, Scale: scale}
	in := &core.Instance{
		Jobs: []*core.Job{job}, NumGPUs: 2,
		Train: [][]float64{{1, 1}}, Sync: [][]float64{{1000, 1000}},
	}
	pss, _, err := NewControlPlane(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps := pss[0]
	before := runtime.NumGoroutine()
	for r := 0; r < rounds; r++ {
		trainEnd := float64(r + 1)
		for k := 0; k < scale; k++ {
			rep := PushReport{Task: core.TaskRef{Job: 0, Round: r, Index: k}, GPU: k, TrainEnd: trainEnd, Grad: make([]float64, ProblemDim)}
			if _, err := ps.Push(rep); err != nil {
				t.Fatal(err)
			}
		}
		ended := make(chan float64, 1)
		go func() {
			end, err := ps.WaitRound(r)
			if err != nil {
				t.Error(err)
			}
			ended <- end
		}()
		select {
		case end := <-ended:
			if want := trainEnd + 1000; end != want {
				t.Fatalf("round %d ended at %g, want %g", r, end, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("round %d: WaitRound still blocked 2 s after the round's last push", r)
		}
	}
	for tries := 0; runtime.NumGoroutine() > before; tries++ { // the last waiter above may still be exiting
		if tries == 100 {
			t.Fatalf("%d goroutines before ten completed rounds, %d after: a completed round left one behind", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond) //lint:allow walltime waiting for real goroutines to exit
	}
}

func TestExecutorSurfacesPushErrors(t *testing.T) {
	in, cl, models := smallWorkload(t, 2, 35)
	plan, err := sched.NewHare().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	clock := NewClock(1e-4)
	_, good, err := NewControlPlane(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := NewRemoteExecutor(RemoteExecutorConfig{
		GPU: 0, GPUType: cl.GPUs[0].Type,
		Instance: in, Models: models, Clock: clock,
		Sync: brokenClient{SyncClient: good},
	})
	if err != nil {
		t.Fatal(err)
	}
	seq := plan.Sequences(in.NumGPUs)[0]
	if len(seq) == 0 {
		t.Skip("plan left GPU 0 empty")
	}
	if err := exec.Run(seq); err == nil || !strings.Contains(err.Error(), "checkpoint unavailable") {
		t.Errorf("executor swallowed the control-plane error: %v", err)
	}
}

type brokenClient struct{ SyncClient }

func (brokenClient) Begin(core.TaskRef) (float64, []float64, error) {
	return 0, nil, errCheckpoint
}

var errCheckpoint = &checkpointErr{}

type checkpointErr struct{}

func (*checkpointErr) Error() string { return "checkpoint unavailable" }
