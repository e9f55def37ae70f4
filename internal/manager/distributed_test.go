package manager

import (
	"math"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/faults"
	"hare/internal/model"
	"hare/internal/obs"
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
		if err == nil || !strings.Contains(err.Error(), "cannot replay netdrop=0.1") {
			t.Errorf("%T: want net-chaos rejection, got %v", back, err)
		}
	}
}

func TestDistributedBackendRejectsCoordDowns(t *testing.T) {
	plan, err := faults.Parse("codown=1+50ms")
	if err != nil {
		t.Fatal(err)
	}
	m := testManager(&DistributedBackend{TimeScale: 1e-3, Faults: plan})
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

// taskSequence is the shape of one task's events, barrier-wait aside.
var taskSequence = regexp.MustCompile(`^(job-switch )?task-start( fault\.injected)* task-finish$`)

// TestEnginesEmitSameTaskSequence: the three engines run one plan under
// one transient-fault plan and emit, per task, the same sequence of
// task events — they share one emitter (obs.TaskRun). The plan is
// hand-built so a lane's task order cannot depend on timing (each lane
// runs its single-task jobs first and then only the scale-2 job's
// rounds, so whenever its head task is barrier-blocked everything behind
// it is too, and the coordinator's eligible-first dispatch has nothing
// to reorder); the per-GPU fault streams are positional, so every task
// then loses the same attempts on every engine. Every lane's stream is
// in time order and exactly one finish closes each task. Barrier waits
// are held to their place in the sequence but not compared across
// engines: the wall-clock engines measure a start after waking up, so
// they see a wait of microseconds where the simulator sees none.
func TestEnginesEmitSameTaskSequence(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real TCP control plane")
	}
	cl := cluster.New([]cluster.Spec{{Type: cluster.V100, Count: 1}, {Type: cluster.K80, Count: 1}}, 2)
	names := []string{"ResNet50", "GraphSAGE", "VGG19"}
	in := &core.Instance{NumGPUs: 2}
	models := make([]*model.Model, len(names))
	for i, shape := range [][2]int{{3, 2}, {3, 1}, {2, 1}} { // rounds, scale
		in.Jobs = append(in.Jobs, &core.Job{ID: core.JobID(i), Name: names[i], Model: names[i], Weight: 1, Rounds: shape[0], Scale: shape[1]})
		in.Train = append(in.Train, []float64{4 + float64(i), 6 + float64(i)})
		in.Sync = append(in.Sync, []float64{0.5, 0.5})
		models[i] = model.MustByName(names[i])
	}
	plan := core.NewSchedule(in)
	for r := 0; r < 3; r++ {
		plan.Place(core.TaskRef{Job: 1, Round: r}, 1, 50*float64(r))
		plan.Place(core.TaskRef{Job: 0, Round: r, Index: 0}, 0, 200+100*float64(r))
		plan.Place(core.TaskRef{Job: 0, Round: r, Index: 1}, 1, 200+100*float64(r))
	}
	for r := 0; r < 2; r++ {
		plan.Place(core.TaskRef{Job: 2, Round: r}, 0, 100*float64(r))
	}
	if err := core.ValidateSchedule(in, plan); err != nil {
		t.Fatal(err)
	}
	fplan, err := faults.Parse("rate=0.3,seed=5")
	if err != nil {
		t.Fatal(err)
	}

	var want map[core.TaskRef]string
	for _, eng := range []struct {
		name string
		back func(*obs.Recorder) Backend
	}{
		{"sim", func(rec *obs.Recorder) Backend { return &SimBackend{Faults: fplan, Recorder: rec} }},
		{"testbed", func(rec *obs.Recorder) Backend {
			return &TestbedBackend{TimeScale: 1e-4, Faults: fplan, Recorder: rec}
		}},
		{"dist", func(rec *obs.Recorder) Backend {
			return &DistributedBackend{TimeScale: 1e-4, Faults: fplan, Recorder: rec}
		}},
	} {
		sink := obs.NewCollectSink()
		if _, _, err := eng.back(obs.NewRecorder(sink)).Execute(in, plan, cl, models); err != nil {
			t.Fatalf("%s: %v", eng.name, err)
		}
		got := make(map[core.TaskRef]string)
		retries := 0
		for g := 0; g < in.NumGPUs; g++ {
			var seq []obs.Event // the lane's current task, up to its finish
			prevStart := math.Inf(-1)
			for _, e := range sink.Events() {
				if e.GPU != g {
					continue
				}
				switch e.Type {
				case obs.EvBarrierWait, obs.EvJobSwitch, obs.EvTaskStart, obs.EvFaultInjected:
					seq = append(seq, e)
					continue
				case obs.EvTaskFinish:
					seq = append(seq, e)
				default:
					continue
				}
				task := core.TaskRef{Job: core.JobID(e.Job), Round: e.Round, Index: e.Index}
				if _, dup := got[task]; dup {
					t.Errorf("%s: task %v finished twice", eng.name, task)
				}
				var types []string
				var start float64
				var lost []obs.Event
				last := prevStart
				for i, s := range seq {
					if s.Time < last {
						t.Errorf("%s GPU %d: %s at %g follows an event at %g: the lane's stream is out of time order", eng.name, g, s.Type, s.Time, last)
					}
					last = s.Time
					switch s.Type {
					case obs.EvBarrierWait:
						if i > 0 {
							t.Errorf("%s %v: barrier-wait is event %d of its task, want the first", eng.name, task, i+1)
						}
						continue // held to its place, not compared: see above
					case obs.EvTaskStart:
						start = s.Time
					case obs.EvFaultInjected:
						lost = append(lost, s)
					}
					types = append(types, s.Type.String())
				}
				got[task] = strings.Join(types, " ")
				if !taskSequence.MatchString(got[task]) {
					t.Errorf("%s %v emits %q, want [job-switch] task-start fault.injected* task-finish", eng.name, task, got[task])
				}
				retries += len(lost)
				// Attempt boundaries are not measured: the lost attempts
				// tile the task's occupancy [Start, Start+Train] evenly.
				attempt := e.Train / float64(len(lost)+1)
				for a, s := range lost {
					if at := start + attempt*float64(a+1); math.Abs(s.Time-at) > 1e-9 || math.Abs(s.Dur-attempt) > 1e-9 {
						t.Errorf("%s %v: lost attempt %d of %d at %g for %g s; the even tiling of [%g, %g] puts it at %g for %g s",
							eng.name, task, a+1, len(lost), s.Time, s.Dur, start, start+e.Train, at, attempt)
					}
				}
				prevStart, seq = start, nil
			}
			if len(seq) > 0 {
				t.Errorf("%s GPU %d: %d task events after the lane's last finish", eng.name, g, len(seq))
			}
		}
		if len(got) != in.NumTasks() {
			t.Errorf("%s: %d tasks finished, want %d", eng.name, len(got), in.NumTasks())
		}
		if retries == 0 {
			t.Fatalf("%s: rate=0.3 lost no attempt; the test needs a seed that does", eng.name)
		}
		if want == nil {
			want = got
			continue
		}
		//lint:ordered independent per-task assertions
		for task, seq := range want {
			if got[task] != seq {
				t.Errorf("%s emits %q for task %v, the simulator %q", eng.name, got[task], task, seq)
			}
		}
	}
}
