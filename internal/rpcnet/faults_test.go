package rpcnet

import (
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/faults"
	"hare/internal/model"
	"hare/internal/obs"
	"hare/internal/sched"
	"hare/internal/store"
	"hare/internal/testbed"
	"hare/internal/workload"
)

// chaosWorkload builds a small heterogeneous instance plus its Hare
// plan and models.
func chaosWorkload(t testing.TB, numJobs int, seed int64) (*core.Instance, *core.Schedule, *cluster.Cluster, []*model.Model) {
	t.Helper()
	cl := cluster.New([]cluster.Spec{{Type: cluster.V100, Count: 2}, {Type: cluster.T4, Count: 1}}, 4)
	specs := workload.Generate(workload.Options{
		NumJobs: numJobs, RoundsScale: 0.05, MaxSync: cl.Size(), Seed: seed,
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
	return in, plan, cl, models
}

// finalParams loads every job's latest checkpoint from the store.
func finalParams(t *testing.T, st store.Store, jobs int) [][]float64 {
	t.Helper()
	out := make([][]float64, jobs)
	for j := 0; j < jobs; j++ {
		data, err := st.Load(store.LatestKey(j))
		if err != nil {
			t.Fatalf("job %d checkpoint: %v", j, err)
		}
		if out[j], err = store.DecodeParams(data); err != nil {
			t.Fatalf("job %d decode: %v", j, err)
		}
	}
	return out
}

func maxParamDiff(a, b [][]float64) float64 {
	var worst float64
	for j := range a {
		for i := range a[j] {
			if d := math.Abs(a[j][i] - b[j][i]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// TestDistributedCrashRecovery is the chaos test: one executor crashes
// mid-run (stops heartbeating, aborts its in-flight task), the lease
// monitor fences it, the coordinator re-plans the residual instance,
// and the run completes on the survivors — with every task executed
// exactly once and the recovered jobs' parameters matching a
// fault-free in-process run of the same plan to 1e-9.
func TestDistributedCrashRecovery(t *testing.T) {
	in, plan, cl, models := chaosWorkload(t, 5, 11)

	// Fault-free reference run (in-process) for the convergence check.
	refStore := store.NewMem()
	if _, err := testbed.Run(in, plan, cl, models, testbed.Options{
		Store: refStore,
	}); err != nil {
		t.Fatal(err)
	}

	// Crash GPU 1 a third of the way into the planned makespan.
	crashAt := plan.Makespan(in) / 3
	ring := obs.NewRingSink(4096)
	st := store.NewMem()
	srv, addr, wait, err := ServeDistributed("127.0.0.1:0", in, plan, cl, models, DistributedOptions{
		TimeScale:         1e-3,
		Store:             st,
		Faults:            &faults.Plan{Failures: []faults.GPUFailure{{GPU: 1, Time: crashAt, Crash: true}}},
		HeartbeatInterval: 5 * time.Millisecond,
		LeaseTimeout:      60 * time.Millisecond,
		Recorder:          obs.NewRecorder(ring),
		Metrics:           obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make([]error, cl.Size())
	for g := 0; g < cl.Size(); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = RunExecutorOpts(addr, g, ExecutorOptions{})
		}(g)
	}
	res, err := wait()
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	wg.Wait()

	// The crashed executor must have returned an error; the survivors
	// may see a fenced error only if they were false-positived, which
	// the generous lease here should prevent.
	if errs[1] == nil {
		t.Error("crashed executor returned nil")
	}
	for g, err := range errs {
		if g != 1 && err != nil {
			t.Errorf("surviving executor %d: %v", g, err)
		}
	}

	if len(res.FailedGPUs) != 1 || res.FailedGPUs[0] != 1 {
		t.Errorf("failures = %v, want exactly GPU 1", res.FailedGPUs)
	}
	if res.Reschedules < 1 {
		t.Errorf("reschedules = %d, want >= 1", res.Reschedules)
	}
	if res.TasksMigrated < 1 {
		t.Errorf("tasks migrated = %d, want >= 1", res.TasksMigrated)
	}
	// Exactly-once: every task has exactly one trace record.
	if len(res.Trace.Records) != in.NumTasks() {
		t.Fatalf("recorded %d tasks, want %d", len(res.Trace.Records), in.NumTasks())
	}
	seen := make(map[core.TaskRef]bool)
	for _, r := range res.Trace.Records {
		if seen[r.Task] {
			t.Errorf("task %v recorded twice", r.Task)
		}
		seen[r.Task] = true
	}
	for j, c := range res.JobCompletion {
		if c <= 0 || math.IsNaN(c) {
			t.Errorf("job %d completion %g", j, c)
		}
	}

	// Relaxed scale-fixed synchronization makes migration
	// convergence-neutral: only the float summation order can differ.
	if d := maxParamDiff(finalParams(t, refStore, len(in.Jobs)), finalParams(t, st, len(in.Jobs))); d > 1e-9 {
		t.Errorf("recovered params diverge from fault-free run by %g (> 1e-9)", d)
	}

	// The recovery path announced itself.
	var sawFailed, sawResched, sawMigrated bool
	for _, e := range ring.Snapshot() {
		switch e.Type {
		case obs.EvGPUFailed:
			sawFailed = true
		case obs.EvReschedule:
			sawResched = true
		case obs.EvTaskMigrated:
			sawMigrated = true
		}
	}
	if !sawFailed || !sawResched || !sawMigrated {
		t.Errorf("events gpu.failed=%v resched.triggered=%v task.migrated=%v, want all",
			sawFailed, sawResched, sawMigrated)
	}
}

// TestDistributedNeverConnectingExecutor: a GPU whose executor never
// dials in is fenced by the lease monitor and its work migrates — the
// run completes instead of hanging Result forever.
func TestDistributedNeverConnectingExecutor(t *testing.T) {
	in, plan, cl, models := chaosWorkload(t, 4, 7)
	srv, addr, wait, err := ServeDistributed("127.0.0.1:0", in, plan, cl, models, DistributedOptions{
		TimeScale:         1e-3,
		HeartbeatInterval: 5 * time.Millisecond,
		LeaseTimeout:      60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// GPU 2 never starts.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = RunExecutorOpts(addr, g, ExecutorOptions{})
		}(g)
	}
	res, err := wait()
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("executor %d: %v", g, err)
		}
	}
	if len(res.FailedGPUs) != 1 || res.FailedGPUs[0] != 2 {
		t.Errorf("failed GPUs %v, want [2]", res.FailedGPUs)
	}
	if len(res.Trace.Records) != in.NumTasks() {
		t.Errorf("recorded %d tasks, want %d", len(res.Trace.Records), in.NumTasks())
	}
}

// TestDistributedRetryDeterminism: for the same fault seed, the
// in-process testbed and the distributed control plane lose the same
// attempts (per-GPU fault streams are positional, so dispatch order
// doesn't matter) and land on the same parameters to 1e-9.
func TestDistributedRetryDeterminism(t *testing.T) {
	in, plan, cl, models := chaosWorkload(t, 5, 23)
	fp := &faults.Plan{Rate: 0.15, Seed: 42}

	localStore := store.NewMem()
	localRes, err := testbed.Run(in, plan, cl, models, testbed.Options{
		Store: localStore, Faults: fp,
	})
	if err != nil {
		t.Fatal(err)
	}

	distStore := store.NewMem()
	srv, addr, wait, err := ServeDistributed("127.0.0.1:0", in, plan, cl, models, DistributedOptions{
		TimeScale: 1e-3, Store: distStore, Faults: fp,
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
			if err := RunExecutorOpts(addr, g, ExecutorOptions{}); err != nil {
				t.Errorf("executor %d: %v", g, err)
			}
		}(g)
	}
	distRes, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if localRes.Retries == 0 {
		t.Error("fault rate 0.15 produced zero retries — injection inert")
	}
	if distRes.Retries != localRes.Retries {
		t.Errorf("distributed retries = %d, in-process = %d; fault streams diverged",
			distRes.Retries, localRes.Retries)
	}
	if d := maxParamDiff(finalParams(t, localStore, len(in.Jobs)), finalParams(t, distStore, len(in.Jobs))); d > 1e-9 {
		t.Errorf("params diverge by %g (> 1e-9)", d)
	}
}

// TestReportValidation: out-of-range GPU indices are rejected before
// any bookkeeping, stale-epoch calls are told to re-handshake,
// duplicates are accepted idempotently, and an error report fences
// the GPU (here the only GPU, making the run unrecoverable). The
// handlers' errors reach the caller as their text, which the session
// loop classifies: a stale epoch starts a fresh session, a fence ends
// the executor.
func TestReportValidation(t *testing.T) {
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

	conn, err := dialRPCSeeded(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	call := func(args ReportArgs) error {
		return conn.call(mReport, &args, &struct{}{})
	}
	for _, gpu := range []int{-1, 1, 99} {
		if err := call(ReportArgs{GPU: gpu, Epoch: 1}); err == nil || !strings.Contains(err.Error(), "unknown GPU") {
			t.Errorf("Report(GPU=%d) = %v, want unknown-GPU rejection", gpu, err)
		}
	}
	// A call carrying the wrong coordinator epoch (here the zero
	// value; the live incarnation is 1) must be told to re-handshake.
	if err := call(ReportArgs{GPU: 0}); err == nil || !strings.Contains(err.Error(), "stale coordinator epoch") ||
		err.Error() != srv.co.Report(ReportArgs{GPU: 0}).Error() || !isSessionRetryable(err) {
		t.Errorf("stale-epoch report = %v, want the handler's re-handshake rejection, retryable", err)
	}
	if err := call(ReportArgs{GPU: 0, Epoch: 1, Err: "device fell off the bus"}); err != nil {
		t.Fatalf("error report rejected: %v", err)
	}
	if err := conn.call(mHeartbeat, &HeartbeatArgs{GPU: 0, Epoch: 1}, &struct{}{}); err == nil ||
		!strings.Contains(err.Error(), "GPU 0 is fenced") || !isFatalRPC(err) {
		t.Errorf("heartbeat of the fenced GPU = %v, want its fence, fatal", err)
	}
	// A duplicate report — a retried call whose first reply was lost —
	// is absorbed idempotently rather than rejected.
	if err := call(ReportArgs{GPU: 0, Epoch: 1}); err != nil {
		t.Errorf("duplicate report = %v, want idempotent nil", err)
	}
	// The only GPU is fenced with work pending: unrecoverable.
	if _, err := wait(); err == nil || !strings.Contains(err.Error(), "no surviving GPUs") {
		t.Errorf("wait = %v, want unrecoverable-run error", err)
	}
}

// TestDialBackoffRecoversLateServer: a dial to a dead port fails after
// a bounded number of backed-off attempts, and a dial that starts
// before the coordinator is listening succeeds once it comes up — what
// an executor racing ServeDistributed (or reconnecting to a recovering
// coordinator) relies on.
func TestDialBackoffRecoversLateServer(t *testing.T) {
	start := time.Now()
	if _, err := dialRPCSeeded("127.0.0.1:1", 0); err == nil {
		t.Fatal("dial to reserved port succeeded")
	} else if !strings.Contains(err.Error(), "attempts failed") {
		t.Errorf("dial error %v, want bounded-attempts error", err)
	}
	if elapsed := time.Since(start); elapsed < DialBackoff {
		t.Errorf("dial gave up after %v, backoff not applied", elapsed)
	}

	// Reserve a port, release it, and bring the coordinator up on it
	// only after the dialer's first attempt has been refused.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	in, plan, cl, models := chaosWorkload(t, 2, 5)
	type served struct {
		srv *Server
		err error
	}
	up := make(chan served, 1)
	go func() {
		time.Sleep(DialBackoff / 2)
		srv, _, _, err := ServeDistributed(addr, in, plan, cl, models, DistributedOptions{TimeScale: 1e-3, LeaseTimeout: time.Hour})
		up <- served{srv, err}
	}()
	c, err := dialRPCSeeded(addr, 7)
	s := <-up
	if s.err != nil {
		t.Fatalf("late ServeDistributed on %s: %v", addr, s.err)
	}
	defer s.srv.Kill()
	if err != nil {
		t.Fatalf("dial to late server: %v", err)
	}
	defer c.Close()
	var cfg ExecutorConfigReply
	if err := c.call(mConfig, &ExecutorConfigArgs{GPU: 0}, &cfg); err != nil || cfg.CoordEpoch != 1 {
		t.Errorf("handshake over the late connection: epoch %d, %v", cfg.CoordEpoch, err)
	}
}
