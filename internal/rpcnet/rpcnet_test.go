package rpcnet

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/model"
	"hare/internal/sched"
	"hare/internal/store"
	"hare/internal/testbed"
	"hare/internal/workload"
)

// TestConcurrentBlockingCalls: Next waits server-side while the GPU's
// queue holds nothing eligible, and the connection's loop runs every
// other call in place — so a waiting Next must be parked in the
// coordinator's state, not stall the Heartbeat and Push calls that share
// its connection (the executor's heartbeat goroutine does exactly that). GPU 1's queue is
// all later rounds of the one job, so its first Next waits for round 0
// to fully push and then carries that round's realized end.
func TestConcurrentBlockingCalls(t *testing.T) {
	t.Run("tcp", func(t *testing.T) { concurrentBlockingCalls(t, "127.0.0.1:0") })
	t.Run("mem", func(t *testing.T) { concurrentBlockingCalls(t, "mem:") })
}

func concurrentBlockingCalls(t *testing.T, listenAddr string) {
	in, _, cl, models := chaosWorkload(t, 1, 5)
	job := in.Jobs[0]
	if job.Rounds < 2 {
		t.Fatalf("workload job has %d rounds; the test needs a round barrier", job.Rounds)
	}
	// Round 0 on GPU 0, every later round on GPU 1, strictly one after
	// the other.
	plan, at := core.NewSchedule(in), job.Arrival
	for r := 0; r < job.Rounds; r++ {
		for i := 0; i < job.Scale; i++ {
			g := min(r, 1)
			plan.Place(core.TaskRef{Job: 0, Round: r, Index: i}, g, at)
			at += in.Train[0][g] + in.Sync[0][g]
		}
	}
	srv, addr, _, err := ServeDistributed(listenAddr, in, plan, cl, models, DistributedOptions{
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

	var next NextReply
	blocked := goCall(conn, mNext, &NextArgs{GPU: 1, Epoch: 1}, &next)
	time.Sleep(10 * time.Millisecond) // the Next is waiting server-side
	select {
	case err := <-goCall(conn, mHeartbeat, &HeartbeatArgs{GPU: 1, Epoch: 1}, &struct{}{}):
		if err != nil {
			t.Fatalf("heartbeat behind a blocked Next: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("heartbeat unanswered 5 s behind a blocked Next")
	}
	var last float64
	for i := 0; i < job.Scale; i++ {
		select {
		case err := <-blocked:
			t.Fatalf("Next returned after %d of %d pushes: %+v, %v", i, job.Scale, next, err)
		default:
		}
		var reply PushReply
		if err := conn.call(mPush, &PushArgs{Epoch: 1, Report: testbed.PushReport{
			Task: core.TaskRef{Job: 0, Round: 0, Index: i}, GPU: 0, TrainEnd: 1, Grad: make([]float64, 32),
		}}, &reply); err != nil {
			t.Fatalf("push %d behind a blocked Next: %v", i, err)
		}
		last = max(last, reply.Completion)
	}
	select {
	case err = <-blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("Next still blocked after the round's last push")
	}
	if want := (core.TaskRef{Job: 0, Round: 1, Index: 0}); err != nil || next.Task != want || next.RoundEnd != last {
		t.Errorf("Next = %+v, %v; want %v with the round's realized end %g", next, err, want, last)
	}
}

// TestCloseRacesAccept: Close waits for the accept loop without holding
// the server's lock, which the loop takes to track a connection accepted
// as Close starts. The test holds the lock while Close queues for it, so
// the mutex hands it to Close before the accept loop's track; with the
// lock held across the wait, neither would return.
func TestCloseRacesAccept(t *testing.T) { closeRacesAccept(t, "127.0.0.1:0") }

// TestCloseRacesAcceptMem is TestCloseRacesAccept over an in-memory
// listener, whose Accept hands over the dialer's pipe.
func TestCloseRacesAcceptMem(t *testing.T) { closeRacesAccept(t, "mem:") }

func closeRacesAccept(t *testing.T, listenAddr string) {
	srv, addr, _ := dispatchBatchAt(t, listenAddr)
	srv.mu.Lock()
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	time.Sleep(5 * time.Millisecond) // past 1 ms the mutex queues its waiters first come, first served
	conn, err := dial(addr)
	if err != nil {
		srv.mu.Unlock()
		t.Fatal(err)
	}
	defer conn.Close()
	time.Sleep(5 * time.Millisecond) // the accept loop queues in track, behind Close
	srv.mu.Unlock()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close still waiting for its accept loop after 5 s")
	}
	srv.Kill()
}

// scriptedFleet plays every executor of a batch over one connection,
// one task at a time, so a test sees each dispatch next to the
// coordinator state it was cut from. Gradients are the real ones,
// computed from the parameters the dispatch carried: a wrong payload
// shows in the final checkpoints.
type scriptedFleet struct {
	t     *testing.T
	in    *core.Instance
	ckpt  store.Store
	probs []*testbed.Problem
	srv   *Server
	conn  *client
	epoch uint64
}

// attach points the fleet at a (fresh or recovered) coordinator and
// handshakes every GPU, as reconnecting executors would.
func (f *scriptedFleet) attach(srv *Server, addr string) {
	f.t.Helper()
	conn, err := dialRPCSeeded(addr, 0)
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(func() { conn.Close() })
	f.srv, f.conn = srv, conn
	for g := 0; g < f.in.NumGPUs; g++ {
		var cfg ExecutorConfigReply
		if err := conn.call(mConfig, &ExecutorConfigArgs{GPU: g}, &cfg); err != nil {
			f.t.Fatal(err)
		}
		f.epoch = cfg.CoordEpoch
	}
}

// eligible reports whether GPU g's Next would return at once: g holds
// an unclaimed in-flight task (a Push reply dispatches one) or a ready
// queued one.
func (f *scriptedFleet) eligible(g int) bool {
	co := f.srv.co
	co.mu.Lock()
	defer co.mu.Unlock()
	_, inflight := co.st.Unclaimed(g)
	return co.st.TasksLeft > 0 && (inflight || co.st.Eligible(g) >= 0)
}

// next pulls GPU g's next task and holds the dispatch against the
// parameter server and the checkpoint store as they are at that moment;
// a duplicate Next must be sent it verbatim.
func (f *scriptedFleet) next(g int) NextReply {
	f.t.Helper()
	args := NextArgs{GPU: g, Epoch: f.epoch}
	var d, dup NextReply
	for _, reply := range []*NextReply{&d, &dup} {
		if err := f.conn.call(mNext, &args, reply); err != nil {
			f.t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(d, dup) {
		f.t.Errorf("duplicate Next was sent %+v, first reply was %+v", dup, d)
	}
	var end float64
	if d.Task.Round > 0 {
		f.srv.co.mu.Lock()
		end = f.srv.co.st.Jobs[d.Task.Job].RoundEnds[d.Task.Round-1]
		f.srv.co.mu.Unlock()
	}
	if d.RoundEnd != end {
		f.t.Errorf("dispatch of %v carries round end %g, the parameter server realized %g", d.Task, d.RoundEnd, end)
	}
	if latest := finalParams(f.t, f.ckpt, len(f.in.Jobs))[d.Task.Job]; !slices.Equal(d.Params, latest) {
		f.t.Errorf("dispatch of %v carries parameters %v, the latest checkpoint is %v", d.Task, d.Params, latest)
	}
	return d
}

func (f *scriptedFleet) push(g int, d NextReply) {
	f.t.Helper()
	t := d.Task
	rep := testbed.PushReport{
		Task: t, GPU: g, Start: d.RoundEnd, TrainEnd: d.RoundEnd + f.in.Train[t.Job][g],
		Grad: f.probs[t.Job].Gradient(d.Params, t.Round, t.Index),
	}
	if err := f.conn.call(mPush, &PushArgs{Report: rep, Epoch: f.epoch}, &PushReply{}); err != nil {
		f.t.Fatal(err)
	}
}

// run pulls and pushes up to n tasks, sweeping the GPUs round-robin,
// and returns how many it ran (fewer than n only when the batch is out
// of work).
func (f *scriptedFleet) run(n int) int {
	f.t.Helper()
	ran := 0
	for progressed := true; progressed && ran < n; {
		progressed = false
		for g := 0; g < f.in.NumGPUs && ran < n; g++ {
			if f.eligible(g) {
				f.push(g, f.next(g))
				ran++
				progressed = true
			}
		}
	}
	return ran
}

// TestNextCarriesBarrierAndCheckpoint: every dispatch carries the
// previous round's realized end and the job's current parameters, a
// duplicate Next is sent them again, and a task re-dispatched after a
// coordinator kill and recovery carries the restored ones — so the
// batch ends on the crash-free checkpoints.
func TestNextCarriesBarrierAndCheckpoint(t *testing.T) {
	in, plan, cl, models := chaosWorkload(t, 3, 9)
	serve := func(ckpt store.Store, journal *Journal) (*scriptedFleet, string) {
		srv, addr, _, err := ServeDistributed("127.0.0.1:0", in, plan, cl, models, DistributedOptions{
			TimeScale: 1e-6, Store: ckpt, Journal: journal, SnapshotEvery: 1,
			LeaseTimeout: time.Hour, // the script heartbeats nothing
		})
		if err != nil {
			t.Fatal(err)
		}
		f := &scriptedFleet{t: t, in: in, ckpt: ckpt}
		for _, j := range in.Jobs {
			f.probs = append(f.probs, testbed.NewProblem(32, 8, int64(j.ID)+1))
		}
		f.attach(srv, addr)
		return f, addr
	}

	ref := store.NewMem()
	f, _ := serve(ref, nil)
	if ran := f.run(in.NumTasks()); ran != in.NumTasks() {
		t.Fatalf("crash-free script ran %d of %d tasks", ran, in.NumTasks())
	}
	f.srv.Kill()

	// Same script, killed half-way with one task dispatched but not yet
	// pushed; the pushes that follow the dispatch put it into a snapshot
	// as in flight.
	ckpt, journal := store.NewMem(), NewMemJournal()
	f, addr := serve(ckpt, journal)
	f.run(in.NumTasks() / 2)
	holder := 0
	for !f.eligible(holder) {
		holder++
	}
	held := f.next(holder)
	for g := 0; g < in.NumGPUs; g++ {
		if g != holder && f.eligible(g) {
			f.push(g, f.next(g))
		}
	}
	if err := f.srv.Kill(); err != nil {
		t.Fatal(err)
	}
	srv, _, _, err := RecoverDistributed(addr, journal, RecoverOptions{Store: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Kill()
	f.attach(srv, addr)
	if f.epoch != 2 {
		t.Fatalf("recovered coordinator serves epoch %d, want 2", f.epoch)
	}
	again := f.next(holder)
	if !reflect.DeepEqual(again, held) {
		t.Errorf("re-dispatch after recovery is %+v, the in-flight dispatch was %+v", again, held)
	}
	f.push(holder, again)
	f.run(in.NumTasks())
	if left := srv.co.st.TasksLeft; left != 0 {
		t.Fatalf("recovered script left %d tasks", left)
	}
	if d := maxParamDiff(finalParams(t, ref, len(in.Jobs)), finalParams(t, ckpt, len(in.Jobs))); d > 1e-9 {
		t.Errorf("recovered checkpoints diverge from the crash-free run by %g (> 1e-9)", d)
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
			if err := RunExecutorOpts(addr, g, ExecutorOptions{}); err != nil {
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
	if err := RunExecutorOpts(addr, 7, ExecutorOptions{}); err == nil {
		t.Error("bogus GPU accepted")
	}
	go func() {
		if err := RunExecutorOpts(addr, 0, ExecutorOptions{}); err != nil {
			t.Errorf("executor: %v", err)
		}
	}()
	if _, err := wait(); err != nil {
		t.Fatal(err)
	}
}

func profileFor(t testing.TB, specs []*workload.Spec, cl *cluster.Cluster) *core.Instance {
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

// TestExecClientBeginRejectsForeignTask: the executor's Begin is
// answered from the dispatch its session holds, and only for the very
// task that dispatch carried — another job's, round's or index's barrier
// and parameters are not what the coordinator sent, and no re-handshake
// would change that. The matching task gets the dispatch's values as
// they arrived.
func TestExecClientBeginRejectsForeignTask(t *testing.T) {
	held := NextReply{Task: core.TaskRef{Job: 1, Round: 2, Index: 1}, RoundEnd: 12.5, Params: []float64{1, 2, 3}}
	c := execClient{s: &execSession{gpu: 3, held: held}}
	for _, foreign := range []core.TaskRef{
		{Job: 0, Round: 2, Index: 1},
		{Job: 1, Round: 1, Index: 1},
		{Job: 1, Round: 3, Index: 1},
		{Job: 1, Round: 2, Index: 0},
	} {
		_, _, err := c.Begin(foreign)
		var perm permanentError
		if !errors.As(err, &perm) {
			t.Errorf("Begin(%v) while holding %v = %v, want a permanentError", foreign, held.Task, err)
		}
	}
	end, params, err := c.Begin(held.Task)
	if err != nil || end != held.RoundEnd || len(params) != len(held.Params) || &params[0] != &held.Params[0] {
		t.Errorf("Begin(%v) = %g, %v, %v; want the dispatch's %g and its parameters, uncopied", held.Task, end, params, err, held.RoundEnd)
	}
}
