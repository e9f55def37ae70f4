package manager

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/model"
	"hare/internal/obs"
	"hare/internal/obs/critpath"
	"hare/internal/trace"
)

// bucketSum adds an attribution vector's buckets in field order.
func bucketSum(b critpath.Buckets) float64 {
	return b.Arrival + b.Queue + b.BarrierWait + b.Switch + b.Compute + b.Comm
}

func testManager(back Backend) *Manager {
	cl := cluster.New([]cluster.Spec{
		{Type: cluster.V100, Count: 2}, {Type: cluster.K80, Count: 2},
	}, 4)
	return New(cl, Options{Backend: back})
}

func req(model string, rounds, scale int) JobRequest {
	return JobRequest{Model: model, Rounds: rounds, Scale: scale, Weight: 1}
}

func TestSubmitValidation(t *testing.T) {
	m := testManager(nil)
	cases := []JobRequest{
		{Model: "NoSuchNet", Rounds: 1, Scale: 1},
		{Model: "ResNet50", Rounds: 0, Scale: 1},
		{Model: "ResNet50", Rounds: 1, Scale: 9}, // wider than fleet
	}
	for i, r := range cases {
		if _, err := m.Submit(r); err == nil {
			t.Errorf("case %d accepted: %+v", i, r)
		}
	}
	if _, err := m.Submit(req("ResNet50", 2, 2)); err != nil {
		t.Fatal(err)
	}
	if len(m.pending) != 1 {
		t.Errorf("pending %d", len(m.pending))
	}
}

func TestBatchLifecycle(t *testing.T) {
	m := testManager(&SimBackend{})
	var ids []int
	for _, name := range []string{"ResNet50", "GraphSAGE", "Bert_base"} {
		id, err := m.Submit(req(name, 3, 2))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		st, err := m.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateQueued {
			t.Errorf("job %d state %s before batch", id, st.State)
		}
	}
	res, err := m.ExecuteBatch()
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 3 || res.WeightedJCT <= 0 || res.Makespan <= 0 {
		t.Errorf("batch result %+v", res)
	}
	for _, id := range ids {
		st, _ := m.Status(id)
		if st.State != StateDone || st.Completion <= 0 {
			t.Errorf("job %d: %+v", id, st)
		}
	}
	if len(m.pending) != 0 {
		t.Errorf("pending %d after batch", len(m.pending))
	}
	// Empty batch is a no-op.
	if res, err := m.ExecuteBatch(); err != nil || res != nil {
		t.Errorf("empty batch: %v %v", res, err)
	}
}

func TestBatchesChainThroughWatermark(t *testing.T) {
	m := testManager(&SimBackend{})
	if _, err := m.Submit(req("VGG19", 4, 2)); err != nil {
		t.Fatal(err)
	}
	first, err := m.ExecuteBatch()
	if err != nil {
		t.Fatal(err)
	}
	id2, err := m.Submit(req("FastGCN", 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	second, err := m.ExecuteBatch()
	if err != nil {
		t.Fatal(err)
	}
	st, _ := m.Status(id2)
	// The second batch's job cannot finish before the fleet freed up.
	if st.Completion < first.Makespan {
		t.Errorf("batch 2 job completed at %.1f before batch 1's makespan %.1f",
			st.Completion, first.Makespan)
	}
	if second.Batch != first.Batch+1 {
		t.Errorf("batch numbering %d -> %d", first.Batch, second.Batch)
	}
}

func TestProfilerReuseAcrossBatches(t *testing.T) {
	m := testManager(&SimBackend{})
	for batch := 0; batch < 3; batch++ {
		for i := 0; i < 5; i++ {
			if _, err := m.Submit(req("ResNet50", 2, 1)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.ExecuteBatch(); err != nil {
			t.Fatal(err)
		}
	}
	st := m.ProfilerStats()
	// 1 model × 2 GPU types: 2 measurements, everything else reused.
	if st.Measured > 2 {
		t.Errorf("profiler measured %d entries for 15 identical jobs", st.Measured)
	}
	if st.Hits < 10 {
		t.Errorf("only %d profile reuses", st.Hits)
	}
}

func TestBatchFailureMarksJobs(t *testing.T) {
	// A scheduler that cannot place the batch (scale > fleet is
	// caught at submit, so force failure via a failing backend).
	m := testManager(failingBackend{})
	id, err := m.Submit(req("ResNet50", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ExecuteBatch(); err == nil {
		t.Fatal("failing backend did not error")
	}
	st, _ := m.Status(id)
	if st.State != StateFailed || !strings.Contains(st.Error, "boom") {
		t.Errorf("status %+v", st)
	}
}

type failingBackend struct{}

func (failingBackend) Execute(*core.Instance, *core.Schedule, *cluster.Cluster, []*model.Model) ([]float64, *trace.Trace, error) {
	return nil, nil, errors.New("boom")
}

func TestTestbedBackendBatch(t *testing.T) {
	m := testManager(&TestbedBackend{TimeScale: 5e-4})
	var ids []int
	for _, name := range []string{"FastGCN", "GraphSAGE"} {
		id, err := m.Submit(req(name, 2, 1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	res, err := m.ExecuteBatch()
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 2 || res.Trace == nil || len(res.Trace.Records) != 4 {
		t.Errorf("testbed batch result %+v", res)
	}
	for _, id := range ids {
		st, _ := m.Status(id)
		if st.State != StateDone {
			t.Errorf("job %d state %s", id, st.State)
		}
	}
}

func TestRPCServiceEndToEnd(t *testing.T) {
	m := testManager(&SimBackend{})
	srv, addr, err := Serve("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	id, err := c.Submit(req("Transformer", 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(JobRequest{Model: "nope", Rounds: 1, Scale: 1}); err == nil {
		t.Error("invalid submission accepted over RPC")
	}
	reply, err := c.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Ran || reply.Jobs != 1 {
		t.Errorf("execute reply %+v", reply)
	}
	st, err := c.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Errorf("state %s", st.State)
	}
	all, err := c.Statuses()
	if err != nil || len(all) != 1 {
		t.Errorf("statuses %v %v", all, err)
	}
	// Empty execute over RPC.
	if reply, err := c.Execute(); err != nil || reply.Ran {
		t.Errorf("empty execute: %+v %v", reply, err)
	}
}

func TestConcurrentSubmissions(t *testing.T) {
	m := testManager(&SimBackend{})
	var wg sync.WaitGroup
	const n = 40
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := m.Submit(req("GraphSAGE", 1, 1)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if len(m.pending) != n {
		t.Errorf("pending %d, want %d", len(m.pending), n)
	}
	res, err := m.ExecuteBatch()
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != n {
		t.Errorf("batch ran %d jobs", res.Jobs)
	}
	// IDs are unique and dense.
	seen := map[int]bool{}
	for _, st := range m.Statuses() {
		if seen[st.ID] {
			t.Errorf("duplicate ID %d", st.ID)
		}
		seen[st.ID] = true
	}
}

// TestAttributionAfterBatch: executing a batch records a canonical
// critical-path attribution, addressable by submission ID, and the
// CritPath RPC serves it. The report is backend-independent — the
// same plan replayed on the simulator — so it works under the
// testbed backend too.
func TestAttributionAfterBatch(t *testing.T) {
	m := testManager(&TestbedBackend{TimeScale: 1e-4})
	if m.lastAttrib != nil {
		t.Fatal("attribution present before any batch")
	}
	if _, err := m.JobAttribution(0); err == nil {
		t.Fatal("JobAttribution succeeded before any batch")
	}
	var ids []int
	for _, name := range []string{"ResNet50", "GraphSAGE"} {
		id, err := m.Submit(req(name, 2, 2))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if _, err := m.ExecuteBatch(); err != nil {
		t.Fatal(err)
	}
	rep := m.lastAttrib
	if rep == nil {
		t.Fatal("no attribution after batch")
	}
	if len(rep.Jobs) != len(ids) {
		t.Fatalf("attribution covers %d jobs, want %d", len(rep.Jobs), len(ids))
	}
	for _, ja := range rep.Jobs {
		if d := bucketSum(ja.Buckets) - ja.Completion; d > 1e-9 || d < -1e-9 {
			t.Errorf("job %d buckets sum off completion by %g", ja.Job, d)
		}
	}
	for _, id := range ids {
		text, err := m.JobAttribution(id)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(text, "compute") {
			t.Errorf("job %d breakdown missing compute line:\n%s", id, text)
		}
	}
	if _, err := m.JobAttribution(99); err == nil {
		t.Error("unknown submission ID accepted")
	}

	// Same answer over the wire.
	srv, addr, err := Serve("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	text, err := c.CritPath(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.JobAttribution(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if text != want {
		t.Error("RPC breakdown differs from local")
	}
	if _, err := c.CritPath(99); err == nil {
		t.Error("unknown ID accepted over RPC")
	}
}

// TestBatchPhaseTelemetry: ExecuteBatch reports plan-solve, backend
// execution and attribution spans into Options.Metrics.
func TestBatchPhaseTelemetry(t *testing.T) {
	cl := cluster.New([]cluster.Spec{
		{Type: cluster.V100, Count: 2}, {Type: cluster.K80, Count: 2},
	}, 4)
	reg := obs.NewRegistry()
	m := New(cl, Options{Backend: &SimBackend{}, Metrics: reg})
	if _, err := m.Submit(req("ResNet50", 2, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ExecuteBatch(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`hare_perf_phase_seconds_count{phase="plan_solve"} 1`,
		`hare_perf_phase_seconds_count{phase="backend_execute"} 1`,
		`hare_perf_phase_seconds_count{phase="plan_attribution"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// recordingBackend keeps every instance it is handed and "runs" job i
// of a batch for 10·(i+1) seconds of the batch's own clock, whatever
// the arrivals say — the way a wall-clock backend restarts at zero.
// during, when set, runs once in the middle of the next Execute.
type recordingBackend struct {
	instances []*core.Instance
	during    func()
}

func (b *recordingBackend) Execute(in *core.Instance, _ *core.Schedule, _ *cluster.Cluster, _ []*model.Model) ([]float64, *trace.Trace, error) {
	b.instances = append(b.instances, in)
	if b.during != nil {
		b.during()
		b.during = nil
	}
	done := make([]float64, len(in.Jobs))
	for i := range done {
		done[i] = 10 * float64(i+1)
	}
	return done, &trace.Trace{}, nil
}

// TestBatchRunsOnItsOwnClock: a backend sees every batch start at zero
// with all of its jobs arrived — also a job submitted while the batch
// before was executing; the Manager adds the batch's base back to what
// it publishes.
func TestBatchRunsOnItsOwnClock(t *testing.T) {
	back := &recordingBackend{}
	m := testManager(back)
	if _, err := m.Submit(req("VGG19", 4, 2)); err != nil {
		t.Fatal(err)
	}
	first, err := m.ExecuteBatch()
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for _, name := range []string{"FastGCN", "ResNet50"} {
		id, err := m.Submit(req(name, 2, 1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	var lateID int
	back.during = func() {
		if lateID, err = m.Submit(req("ResNet50", 2, 1)); err != nil {
			t.Error(err)
		}
	}
	second, err := m.ExecuteBatch()
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := m.Status(lateID); st.SubmittedAt != first.Makespan {
		t.Errorf("job submitted during batch 2 is stamped %g, want the watermark %g it was submitted at", st.SubmittedAt, first.Makespan)
	}
	third, err := m.ExecuteBatch()
	if err != nil {
		t.Fatal(err)
	}
	if late := back.instances[2].Jobs; len(late) != 1 || late[0].Arrival != 0 {
		t.Errorf("batch 3 is handed %v, want the one job submitted during batch 2, arriving at 0", late)
	}
	if want := second.Makespan + 10; third.Makespan != want {
		t.Errorf("batch 3 makespan %g, want %g", third.Makespan, want)
	}
	for _, j := range back.instances[1].Jobs {
		if j.Arrival != 0 {
			t.Errorf("batch 2 hands its backend %s arriving at %g, want 0", j.Name, j.Arrival)
		}
	}
	if first.Makespan != 10 || second.Makespan != first.Makespan+20 {
		t.Errorf("makespans %g then %g, want 10 then base 10 + the backend's local 20", first.Makespan, second.Makespan)
	}
	if want := (first.Makespan + 10) + (first.Makespan + 20); second.WeightedJCT != want {
		t.Errorf("batch 2 weighted JCT %g, want %g on the manager clock", second.WeightedJCT, want)
	}
	for i, id := range ids {
		st, _ := m.Status(id)
		if want := first.Makespan + 10*float64(i+1); st.Completion != want {
			t.Errorf("job %d completed at %g, want %g (not before batch 1's makespan %g)", id, st.Completion, want, first.Makespan)
		}
	}
}

// TestReusedManagerDoesNotIdle: on every real backend the third batch
// of a Manager starts working right away instead of first sleeping
// through the batches before it. Batch 1 is long enough (~130 simulated
// seconds, ~130 ms of wall time on the wall-clock backends) that their
// start-up latency is a hundredth of it.
func TestReusedManagerDoesNotIdle(t *testing.T) {
	for _, tc := range []struct {
		name string
		back Backend
	}{
		{"sim", &SimBackend{}},
		{"testbed", &TestbedBackend{TimeScale: 1e-3}},
		{"dist", &DistributedBackend{TimeScale: 1e-3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := testManager(tc.back)
			var first, third *BatchResult
			for _, rounds := range []int{32, 1, 1} {
				if _, err := m.Submit(req("VGG19", rounds, 2)); err != nil {
					t.Fatal(err)
				}
				res, err := m.ExecuteBatch()
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = res
				}
				third = res
			}
			earliest := math.Inf(1)
			for _, r := range third.Trace.Records {
				earliest = min(earliest, r.Start)
			}
			if earliest >= first.Makespan {
				t.Errorf("batch 3's first task starts at %g on its own clock: it idled through batch 1 (makespan %g)", earliest, first.Makespan)
			}
		})
	}
}
