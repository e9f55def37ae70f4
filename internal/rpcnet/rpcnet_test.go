package rpcnet

import (
	"math"
	"testing"
	"time"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/model"
	"hare/internal/sched"
	"hare/internal/testbed"
	"hare/internal/workload"
)

// TestConcurrentBlockingCalls: WaitRound blocks server-side until the
// round's last gradient lands, and net/rpc runs each call in its own
// goroutine — so a blocked barrier must not stall the Heartbeat and
// Push calls that share its connection (the executor's heartbeat
// goroutine and pull loop do exactly that).
func TestConcurrentBlockingCalls(t *testing.T) {
	in, plan, cl, models := chaosWorkload(t, 2, 5)
	srv, addr, _, err := ServeDistributed("127.0.0.1:0", in, plan, cl, models, DistributedOptions{
		TimeScale:    1e-3,
		LeaseTimeout: time.Hour, // no executors run; the monitor must not interfere
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Kill()
	conn, err := dialRPCSeeded(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var end WaitReply
	barrier := conn.Go(DistributedName+".WaitRound", WaitArgs{Job: 0, Round: 0, Epoch: 1}, &end, nil)
	if err := conn.Call(DistributedName+".Heartbeat", HeartbeatArgs{GPU: 0, Epoch: 1}, &struct{}{}); err != nil {
		t.Fatalf("heartbeat behind a blocked WaitRound: %v", err)
	}
	var last float64
	for i := 0; i < in.Jobs[0].Scale; i++ {
		select {
		case <-barrier.Done:
			t.Fatalf("WaitRound returned after %d of %d pushes: %v", i, in.Jobs[0].Scale, barrier.Error)
		default:
		}
		var reply PushReply
		if err := conn.Call(DistributedName+".Push", PushArgs{Epoch: 1, Report: testbed.PushReport{
			Task: core.TaskRef{Job: 0, Round: 0, Index: i}, GPU: 0, TrainEnd: 1, Grad: make([]float64, 32),
		}}, &reply); err != nil {
			t.Fatalf("push %d behind a blocked WaitRound: %v", i, err)
		}
		last = max(last, reply.Completion)
	}
	select {
	case <-barrier.Done:
	case <-time.After(10 * time.Second):
		t.Fatal("WaitRound still blocked after the round's last push")
	}
	if barrier.Error != nil || end.End != last {
		t.Errorf("WaitRound = %g, %v; want the round's realized end %g", end.End, barrier.Error, last)
	}
}

// TestDistributedExecutors runs the full distributed protocol: the
// coordinator hosts the PSs and sequences; one executor per GPU
// fetches its configuration over TCP, runs, and reports back. The
// executors here run as goroutines but use exclusively the RPC path
// (the same code cmd/hare-executor wraps).
func TestDistributedExecutors(t *testing.T) {
	cl := cluster.New([]cluster.Spec{{Type: cluster.V100, Count: 2}, {Type: cluster.T4, Count: 1}}, 4)
	specs := workload.Generate(workload.Options{
		NumJobs: 5, RoundsScale: 0.05, MaxSync: cl.Size(), Seed: 11,
	})
	in := profileFor(t, specs, cl)
	plan, err := sched.NewHare().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	models := make([]*model.Model, len(specs))
	for i, s := range specs {
		models[i] = model.MustByName(s.Model)
	}
	srv, addr, wait, err := ServeDistributed("127.0.0.1:0", in, plan, cl, models, DistributedOptions{
		TimeScale: 1e-3, Speculative: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for g := 0; g < cl.Size(); g++ {
		go func(g int) {
			if err := RunExecutor(addr, g); err != nil {
				t.Errorf("executor %d: %v", g, err)
			}
		}(g)
	}
	res, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.Records) != in.NumTasks() {
		t.Errorf("distributed run recorded %d tasks, want %d", len(res.Trace.Records), in.NumTasks())
	}
	for j, c := range res.JobCompletion {
		if c <= 0 || math.IsNaN(c) {
			t.Errorf("job %d completion %g", j, c)
		}
	}
	if res.WeightedJCT <= 0 {
		t.Errorf("weighted JCT %g", res.WeightedJCT)
	}
}

func TestDistributedConfigValidation(t *testing.T) {
	cl := cluster.New([]cluster.Spec{{Type: cluster.V100, Count: 1}}, 1)
	specs := workload.Generate(workload.Options{NumJobs: 2, RoundsScale: 0.05, MaxSync: 1, Seed: 3})
	in := profileFor(t, specs, cl)
	plan, err := sched.NewHare().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	models := []*model.Model{model.MustByName(specs[0].Model), model.MustByName(specs[1].Model)}
	srv, addr, wait, err := ServeDistributed("127.0.0.1:0", in, plan, cl, models, DistributedOptions{TimeScale: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Unknown GPU index rejected.
	if err := RunExecutor(addr, 7); err == nil {
		t.Error("bogus GPU accepted")
	}
	go func() {
		if err := RunExecutor(addr, 0); err != nil {
			t.Errorf("executor: %v", err)
		}
	}()
	if _, err := wait(); err != nil {
		t.Fatal(err)
	}
}

func profileFor(t *testing.T, specs []*workload.Spec, cl *cluster.Cluster) *core.Instance {
	t.Helper()
	in := &core.Instance{NumGPUs: cl.Size()}
	for i, s := range specs {
		m := model.MustByName(s.Model)
		in.Jobs = append(in.Jobs, s.Job)
		tr := make([]float64, cl.Size())
		sy := make([]float64, cl.Size())
		for _, g := range cl.GPUs {
			tr[g.ID] = m.BatchSeconds(g.Type.Speed, 1) * 20
			sy[g.ID] = 0.05
		}
		in.Train = append(in.Train, tr)
		in.Sync = append(in.Sync, sy)
		_ = i
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	return in
}
