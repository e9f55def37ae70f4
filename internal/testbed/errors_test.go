package testbed

import (
	"errors"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/model"
	"hare/internal/sched"
	"hare/internal/store"
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
	// A clock scale with no meaning: 0 is the virtual clock, not a default.
	for _, scale := range []float64{-1e-3, math.NaN(), math.Inf(1)} {
		if _, err := Run(in, plan, cl, models, Options{TimeScale: scale}); err == nil ||
			!strings.Contains(err.Error(), "invalid TimeScale") {
			t.Errorf("TimeScale %g: %v, want it refused", scale, err)
		}
	}
}

func TestNewRemoteExecutorValidation(t *testing.T) {
	in, cl, models := smallWorkload(t, 2, 33)
	clock := wallClock(t, 1e-3)
	base := RemoteExecutorConfig{
		GPU: 0, GPUType: cl.GPUs[0].Type,
		Instance: in, Models: models, Clock: clock, Sync: testPlane(t, in),
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
	epoch := time.Now().Add(-100 * time.Millisecond) //lint:allow walltime the wall clock's own epoch is what is tested
	c, err := NewClockAt(epoch, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != epoch {
		t.Error("epoch not preserved")
	}
	// 100 ms wall at 1e-3 scale ≈ 100 simulated seconds.
	if now := c.Now(); now < 90 || now > 200 {
		t.Errorf("clock at %g sim-seconds, want ≈100", now)
	}
	// Two clocks with one epoch agree.
	d, err := NewClockAt(epoch, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if diff := c.Now() - d.Now(); diff > 1 || diff < -1 {
		t.Errorf("shared-epoch clocks diverge by %g", diff)
	}
}

// TestClockRefusesBadScale: a wall clock keeps only a positive, finite
// scale, and both constructors say so with an error, not a panic or a
// clock whose Now never moves.
func TestClockRefusesBadScale(t *testing.T) {
	for _, scale := range []float64{0, -1, math.Inf(-1), math.NaN(), math.Inf(1)} {
		if c, err := NewClock(scale); err == nil || c != nil || !strings.Contains(err.Error(), "invalid TimeScale") {
			t.Errorf("NewClock(%g) = %v, %v; want no clock and an invalid-TimeScale error", scale, c, err)
		}
		if c, err := NewClockAt(time.Unix(0, 0), scale); err == nil || c != nil {
			t.Errorf("NewClockAt(_, %g) = %v, %v; want no clock and an error", scale, c, err)
		}
	}
	if _, err := NewClock(0); err == nil || !strings.Contains(err.Error(), "virtual time") {
		t.Errorf("NewClock(0): %v; want an error naming virtual time", err)
	}
}

// wallClock is a wall clock at a scale the test knows to be valid.
func wallClock(t testing.TB, scale float64) *Clock {
	t.Helper()
	c, err := NewClock(scale)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSleepUntilWakesOnTime: a wall-clock wait never ends before its
// target, and a short one does not take a timer tick. Two hundred 50 µs
// waits at scale 1 must be late by under 250 µs at the median; a plain
// time.Sleep of that length takes about a millisecond on an idle
// runtime. A few waits longer than sleepGrain take the sleeping path.
func TestSleepUntilWakesOnTime(t *testing.T) {
	c := wallClock(t, 1)
	if now := c.Now(); c.SleepUntil(now-1) < now {
		t.Fatal("a wait for a past time went back in time")
	}
	wait := func(d float64) float64 {
		target := c.Now() + d
		woke := c.SleepUntil(target)
		if woke < target || c.Now() < target {
			t.Fatalf("a %g s wait returned at %.9f, before its target %.9f", d, woke, target)
		}
		return woke - target
	}
	for i := 0; i < 5; i++ {
		wait(2.5 * sleepGrain.Seconds())
	}
	late := make([]float64, 200)
	for i := range late {
		late[i] = wait(50e-6)
	}
	sort.Float64s(late)
	if p50 := late[len(late)/2]; p50 >= 250e-6 {
		t.Errorf("median lateness of %d 50 µs waits is %.0f µs, want under 250 µs", len(late), p50*1e6)
	}
}

// testPlane is GPU 0's lane of the in-process control plane of a fresh
// run of in on the wall clock, its initial checkpoints saved.
func testPlane(t *testing.T, in *core.Instance) *lane {
	t.Helper()
	st := NewState(in, make([][]core.TaskRef, in.NumGPUs), store.NewMem())
	if err := st.SaveCheckpoints(); err != nil {
		t.Fatal(err)
	}
	return &newPlane(st, wallClock(t, 1)).lanes[0]
}

// TestPSRejectsWrongRoundAndJob: the control plane refuses a gradient of
// a round that has not begun, a gradient of a job the instance lacks,
// and a wait for a round the job does not have, rather than blocking on
// it forever.
func TestPSRejectsWrongRoundAndJob(t *testing.T) {
	job := &core.Job{ID: 0, Name: "j", Weight: 1, Rounds: 2, Scale: 1}
	in := &core.Instance{
		Jobs: []*core.Job{job}, NumGPUs: 1,
		Train: [][]float64{{1}}, Sync: [][]float64{{0}},
	}
	grad := make([]float64, ProblemDim)
	// Round 1 before round 0 violates synchronization.
	if _, err := testPlane(t, in).Push(PushReport{Task: core.TaskRef{Job: 0, Round: 1}, TrainEnd: 1, Grad: grad}); err == nil ||
		!strings.Contains(err.Error(), "synchronization violated") {
		t.Errorf("out-of-round gradient: %v", err)
	}
	// Wrong job.
	if _, err := testPlane(t, in).Push(PushReport{Task: core.TaskRef{Job: 5, Round: 0}, TrainEnd: 1, Grad: grad}); err == nil {
		t.Error("wrong-job gradient accepted")
	}
	// Wrong round index waited for.
	if _, _, err := testPlane(t, in).Begin(core.TaskRef{Job: 0, Round: 9}); err == nil {
		t.Error("bogus round wait accepted")
	}
}

// TestRoundGateClosesAtLastPush: a task of the next round waits until
// its previous round's last gradient lands, and then learns the round's
// realized end as a value — here 1000 simulated seconds past the push,
// which at the clock scale of 1 a real run would use is a quarter of an
// hour nobody may sleep through inside the control plane (the executor
// sleeps to the barrier itself). And a completed round leaves nothing
// behind: no goroutine, no timer.
func TestRoundGateClosesAtLastPush(t *testing.T) {
	const rounds, scale = 10, 2
	job := &core.Job{ID: 0, Name: "j", Weight: 1, Rounds: rounds, Scale: scale}
	in := &core.Instance{
		Jobs: []*core.Job{job}, NumGPUs: 2,
		Train: [][]float64{{1, 1}}, Sync: [][]float64{{1000, 1000}},
	}
	p := testPlane(t, in)
	before := runtime.NumGoroutine()
	for r := 0; r < rounds-1; r++ {
		trainEnd := float64(r + 1)
		ended := make(chan float64, 1)
		go func() {
			end, _, err := p.Begin(core.TaskRef{Job: 0, Round: r + 1})
			if err != nil {
				t.Error(err)
			}
			ended <- end
		}()
		for k := 0; k < scale; k++ {
			select {
			case <-ended:
				t.Fatalf("round %d: a round-%d task began before the round's push %d of %d", r, r+1, k+1, scale)
			default:
			}
			rep := PushReport{Task: core.TaskRef{Job: 0, Round: r, Index: k}, GPU: k, TrainEnd: trainEnd, Grad: make([]float64, ProblemDim)}
			if _, err := p.Push(rep); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case end := <-ended:
			if want := trainEnd + 1000; end != want {
				t.Fatalf("round %d ended at %g, want %g", r, end, want)
			}
		case <-time.After(2 * time.Second): //lint:allow walltime a watchdog on a real goroutine, not simulated time
			t.Fatalf("round %d: Begin of round %d still blocked 2 s after the round's last push", r, r+1)
		}
	}
	settle(t, before, "nine completed rounds")
}

// settle waits for the goroutine count to fall back to before: goroutines
// that already delivered their result may still be exiting.
func settle(t *testing.T, before int, after string) {
	t.Helper()
	for tries := 0; runtime.NumGoroutine() > before; tries++ {
		if tries == 100 {
			t.Fatalf("%d goroutines before %s, %d after: it left one behind", before, after, runtime.NumGoroutine())
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
	exec, err := NewRemoteExecutor(RemoteExecutorConfig{
		GPU: 0, GPUType: cl.GPUs[0].Type,
		Instance: in, Models: models, Clock: wallClock(t, 1e-4),
		Sync: brokenClient{SyncClient: testPlane(t, in)},
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

// saveFails refuses to save one key.
type saveFails struct {
	store.Store
	key string
}

func (s saveFails) Save(key string, data []byte) error {
	if key == s.key {
		return errors.New("disk full")
	}
	return s.Store.Save(key, data)
}

// TestRunFailsClosed: a checkpoint save that fails when round 0 closes
// ends the run with that error, as it ends a distributed one
// (rpcnet's TestFailedCheckpointFailsRun) — the executor waiting for
// round 0 on the other GPU is woken instead of blocking forever, and no
// goroutine is left behind. It holds on both clocks: on the virtual one
// (TimeScale 0) the failure must release the lanes parked in the plane.
func TestRunFailsClosed(t *testing.T) {
	job := &core.Job{ID: 0, Name: "j", Model: "ResNet50", Weight: 1, Rounds: 3, Scale: 2}
	in := &core.Instance{
		Jobs: []*core.Job{job}, NumGPUs: 2,
		Train: [][]float64{{1, 1}}, Sync: [][]float64{{0.1, 0.1}},
	}
	plan := core.NewSchedule(in)
	for r := 0; r < job.Rounds; r++ {
		for k := 0; k < job.Scale; k++ {
			plan.Place(core.TaskRef{Job: 0, Round: r, Index: k}, k, float64(r)*1.1)
		}
	}
	cl := cluster.New([]cluster.Spec{{Type: cluster.V100, Count: 2}}, 4)
	models := []*model.Model{model.MustByName("ResNet50")}
	for _, scale := range []float64{1e-4, 0} {
		before := runtime.NumGoroutine()
		done := make(chan error, 1)
		go func() {
			_, err := Run(in, plan, cl, models, Options{
				TimeScale: scale, Store: saveFails{Store: store.NewMem(), key: store.CheckpointKey(0, 0)},
			})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "checkpoint save") || !strings.Contains(err.Error(), "disk full") {
				t.Errorf("TimeScale %g: run over a failing checkpoint store returned %v, want the save's error", scale, err)
			}
		case <-time.After(10 * time.Second): //lint:allow walltime a watchdog on a real goroutine, not simulated time
			t.Fatalf("TimeScale %g: run over a failing checkpoint store still blocked after 10 s", scale)
		}
		settle(t, before, "a failed run")
	}
}

// TestRunFailsOnCircularWait: a plan whose tasks wait on each other's
// rounds in a circle — valid within the planner's 1e-6 s tolerance, as
// here with near-zero train times — ends the run with an error on both
// clocks, as the simulator reports its deadlock, instead of hanging.
func TestRunFailsOnCircularWait(t *testing.T) {
	in := &core.Instance{NumGPUs: 2}
	for id := range 2 {
		in.Jobs = append(in.Jobs, &core.Job{ID: core.JobID(id), Name: "j", Model: "ResNet50", Weight: 1, Rounds: 2, Scale: 1})
		in.Train = append(in.Train, []float64{1e-7, 1e-7})
		in.Sync = append(in.Sync, []float64{0, 0})
	}
	// GPU g runs job g's round 1 first, then job 1-g's round 0.
	plan := core.NewSchedule(in)
	for g := range 2 {
		plan.Place(core.TaskRef{Job: core.JobID(g), Round: 1}, g, 0)
		plan.Place(core.TaskRef{Job: core.JobID(1 - g), Round: 0}, g, 1e-7)
	}
	cl := cluster.New([]cluster.Spec{{Type: cluster.V100, Count: 2}}, 4)
	models := []*model.Model{model.MustByName("ResNet50"), model.MustByName("ResNet50")}
	for _, scale := range []float64{1e-4, 0} {
		done := make(chan error, 1)
		go func() {
			_, err := Run(in, plan, cl, models, Options{TimeScale: scale})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "deadlock") {
				t.Errorf("TimeScale %g: circular plan returned %v, want a deadlock error", scale, err)
			}
		case <-time.After(10 * time.Second): //lint:allow walltime a watchdog on a real goroutine, not simulated time
			t.Fatalf("TimeScale %g: circular plan still running after 10 s", scale)
		}
	}
}
