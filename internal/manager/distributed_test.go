package manager

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/faults"
	"hare/internal/model"
	"hare/internal/profile"
	"hare/internal/rpcnet"
	"hare/internal/sched"
)

func TestDistributedBackendBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real TCP control plane")
	}
	m := testManager(&DistributedBackend{
		TimeScale: 1e-4,
		Journal:   rpcnet.NewMemJournal(),
	})
	var ids []int
	for _, name := range []string{"ResNet50", "GraphSAGE"} {
		id, err := m.Submit(req(name, 2, 2))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	res, err := m.ExecuteBatch()
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 2 || res.Makespan <= 0 {
		t.Fatalf("batch result %+v", res)
	}
	for _, id := range ids {
		st, _ := m.Status(id)
		if st.State != StateDone || st.Completion <= 0 {
			t.Errorf("job %d: %+v", id, st)
		}
	}
}

// TestDistributedBackendClosesCoordinator: each batch's coordinator —
// listener, accept goroutine, lease monitor — is gone once Execute
// returns, so a long-lived manager's goroutine count does not grow
// with the batches it has run.
func TestDistributedBackendClosesCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real TCP control plane")
	}
	m := testManager(&DistributedBackend{TimeScale: 1e-4})
	before := runtime.NumGoroutine()
	for batch := 0; batch < 5; batch++ {
		if _, err := m.Submit(req("ResNet50", 2, 2)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.ExecuteBatch(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
	}
	// net/rpc's ServeConn goroutines drain asynchronously after the
	// connections close; poll (up to 5 s) until the count settles back.
	for tries := 0; runtime.NumGoroutine() > before; tries++ {
		if tries == 500 {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked over 5 batches: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond) //lint:allow walltime waiting for real goroutines to exit
	}
}

func TestInProcessBackendsRejectNetChaos(t *testing.T) {
	plan, err := faults.Parse("netdrop=0.1")
	if err != nil {
		t.Fatal(err)
	}
	for _, back := range []Backend{
		&TestbedBackend{Faults: plan},
		&SimBackend{Faults: plan},
	} {
		m := testManager(back)
		if _, err := m.Submit(req("ResNet50", 1, 1)); err != nil {
			t.Fatal(err)
		}
		_, err := m.ExecuteBatch()
		if err == nil || !strings.Contains(err.Error(), "requires the distributed backend") {
			t.Errorf("%T: want net-chaos rejection, got %v", back, err)
		}
	}
}

func TestDistributedBackendRejectsCoordDowns(t *testing.T) {
	plan, err := faults.Parse("codown=1+50ms")
	if err != nil {
		t.Fatal(err)
	}
	m := testManager(&DistributedBackend{Faults: plan})
	if _, err := m.Submit(req("ResNet50", 1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ExecuteBatch(); err == nil || !strings.Contains(err.Error(), "harechaos") {
		t.Errorf("want codown rejection, got %v", err)
	}
}

// TestBackendsShareSwitchingScheme: the three backends execute a plan
// under the same switching scheme — the one the manager's attribution
// replay assumes. Switching stalls are modelled costs, not measured
// ones, so their sum over a batch's trace is equal across engines; the
// distributed backend used to run under switching.Default with no
// speculative memory and paid thousands of times more.
func TestBackendsShareSwitchingScheme(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real TCP control plane")
	}
	cl := cluster.New([]cluster.Spec{{Type: cluster.V100, Count: 1}, {Type: cluster.K80, Count: 1}}, 2)
	names := []string{"ResNet50", "GraphSAGE", "VGG19", "ResNet50"}
	jobs := make([]*core.Job, len(names))
	specs := make([]profile.JobSpec, len(names))
	models := make([]*model.Model, len(names))
	for i, name := range names {
		jobs[i] = &core.Job{ID: core.JobID(i), Name: name, Model: name, Weight: 1, Rounds: 3, Scale: 1}
		models[i] = model.MustByName(name)
		specs[i] = managerSpec{req: JobRequest{Model: name, BatchScale: 1, Scale: 1}}
	}
	in, err := profile.New(profile.Options{}).BuildInstance(jobs, specs, cl)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sched.NewHare().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for i, back := range []Backend{
		&SimBackend{},
		&TestbedBackend{TimeScale: 1e-4},
		&DistributedBackend{TimeScale: 1e-4},
	} {
		_, tr, err := back.Execute(in, plan, cl, models)
		if err != nil {
			t.Fatalf("%T: %v", back, err)
		}
		var stall float64
		switches := 0
		for _, r := range tr.Records {
			stall += r.Switch
			if r.Switch > 0 {
				switches++
			}
		}
		if switches == 0 {
			t.Fatalf("%T: the batch never switched jobs; the test needs a plan that does", back)
		}
		if i == 0 {
			want = stall
		} else if math.Abs(stall-want) > 1e-9 {
			t.Errorf("%T paid %.9f s of switching stall over %d switches, the simulator %.9f s", back, stall, switches, want)
		}
	}
}
