package span_test

import (
	"math/rand"
	"reflect"
	"testing"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/faults"
	"hare/internal/model"
	"hare/internal/obs"
	"hare/internal/obs/span"
	"hare/internal/sched"
	"hare/internal/sim"
	"hare/internal/switching"
)

// scenario runs a deterministic 2-GPU, 2-job plan through Hare and the
// simulator with full instrumentation, returning the captured events
// and the simulator's result.
func scenario(t *testing.T, opts sim.Options) ([]obs.Event, *sim.Result, *core.Instance) {
	t.Helper()
	cl := cluster.New([]cluster.Spec{{Type: cluster.V100, Count: 1}, {Type: cluster.T4, Count: 1}}, 4)
	in := &core.Instance{
		NumGPUs: 2,
		Jobs: []*core.Job{
			{ID: 0, Name: "job-0(ResNet50)", Model: "ResNet50", Weight: 1, Arrival: 0, Rounds: 2, Scale: 2},
			{ID: 1, Name: "job-1(GraphSAGE)", Model: "GraphSAGE", Weight: 2, Arrival: 1, Rounds: 2, Scale: 1},
		},
		Train: [][]float64{{4, 8}, {3, 6}},
		Sync:  [][]float64{{0.5, 0.5}, {0.25, 0.25}},
	}
	models := []*model.Model{model.MustByName("ResNet50"), model.MustByName("GraphSAGE")}
	plan, err := sched.NewHare().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	collect := obs.NewCollectSink()
	opts.Scheme = switching.Hare
	opts.Speculative = true
	opts.Recorder = obs.NewRecorder(collect)
	res, err := sim.Run(in, plan, cl, models, opts)
	if err != nil {
		t.Fatal(err)
	}
	return collect.Events(), res, in
}

func countKind(tr *span.Tree, k span.Kind) int {
	n := 0
	for _, s := range tr.Spans {
		if s.Kind == k {
			n++
		}
	}
	return n
}

func countEvents(events []obs.Event, ty obs.Type) int {
	n := 0
	for _, e := range events {
		if e.Type == ty {
			n++
		}
	}
	return n
}

// children returns the IDs of id's direct children, in tree order.
func children(tr *span.Tree, id int) []int {
	var out []int
	for _, s := range tr.Spans {
		if s.Parent == id {
			out = append(out, s.ID)
		}
	}
	return out
}

// jobSpan returns the ID of a job's root span, or NoID.
func jobSpan(tr *span.Tree, job int) int {
	for _, s := range tr.Spans {
		if s.Kind == span.KindJob && s.Job == job {
			return s.ID
		}
	}
	return span.NoID
}

func TestBuildTreeStructure(t *testing.T) {
	events, res, in := scenario(t, sim.Options{})
	tr, err := span.Build(events)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}

	if got := len(tr.Roots()); got != len(in.Jobs) {
		t.Fatalf("roots = %d, want %d", got, len(in.Jobs))
	}
	for _, j := range in.Jobs {
		id := jobSpan(tr, int(j.ID))
		if id == span.NoID {
			t.Fatalf("job %d has no span", j.ID)
		}
		js := tr.Spans[id]
		if js.End != res.JobCompletion[j.ID] {
			t.Errorf("job %d span end %.17g, want completion %.17g", j.ID, js.End, res.JobCompletion[j.ID])
		}
		rounds := children(tr, id)
		if len(rounds) != j.Rounds {
			t.Errorf("job %d has %d round spans, want %d", j.ID, len(rounds), j.Rounds)
		}
		for _, rid := range rounds {
			tasks := children(tr, rid)
			if len(tasks) != j.Scale {
				t.Errorf("job %d round %d has %d attempts, want %d", j.ID, tr.Spans[rid].Round, len(tasks), j.Scale)
			}
			for _, tid := range tasks {
				ts := tr.Spans[tid]
				if ts.Kind != span.KindTask || ts.Attempt != 0 {
					t.Errorf("fault-free attempt = %+v, want attempt 0 task", ts)
				}
				var hasCompute bool
				for _, pid := range children(tr, tid) {
					if tr.Spans[pid].Kind == span.KindCompute {
						hasCompute = true
					}
				}
				if !hasCompute {
					t.Errorf("task span %d has no compute child", tid)
				}
			}
		}
	}

	if got, want := countKind(tr, span.KindSwitchIn), countEvents(events, obs.EvJobSwitch); got != want {
		t.Errorf("switch-in spans = %d, want %d (one per switch event)", got, want)
	}
	waits := countKind(tr, span.KindQueue) + countKind(tr, span.KindBarrierWait)
	if want := countEvents(events, obs.EvBarrierWait); waits != want {
		t.Errorf("wait spans = %d, want %d (one per wait event)", waits, want)
	}
	if got, want := countKind(tr, span.KindComm), countEvents(events, obs.EvTaskFinish); got != want {
		t.Errorf("comm spans = %d, want %d", got, want)
	}
}

// TestBuildDeterministicUnderShuffle pins the canonicalization
// guarantee: the tree is a function of the event *set*, not the
// interleaving order a multi-goroutine engine happened to record.
func TestBuildDeterministicUnderShuffle(t *testing.T) {
	events, _, _ := scenario(t, sim.Options{})
	want, err := span.Build(events)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		shuffled := append([]obs.Event(nil), events...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		got, err := span.Build(shuffled)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: shuffled build differs", trial)
		}
	}
}

func TestBuildLostAttempts(t *testing.T) {
	events, res, _ := scenario(t, sim.Options{
		Faults: &faults.Plan{Rate: 0.4, Seed: 9},
	})
	if res.Retries == 0 {
		t.Fatal("scenario injected no retries; raise the rate")
	}
	tr, err := span.Build(events)
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	for _, s := range tr.Spans {
		if s.Kind != span.KindTask || !s.Lost {
			continue
		}
		lost++
		if s.Attempt < 0 {
			t.Fatalf("unexpected stranded marker without migration: %+v", s)
		}
		// A lost attempt and its successor tile the occupancy.
		var next *span.Span
		for i := range tr.Spans {
			n := &tr.Spans[i]
			if n.Kind == span.KindTask && n.Job == s.Job && n.Round == s.Round &&
				n.Index == s.Index && n.Attempt == s.Attempt+1 {
				next = n
			}
		}
		if next == nil {
			t.Fatalf("lost attempt %+v has no successor", s)
		}
		if next.Start != s.End {
			t.Errorf("attempt boundary mismatch: %v then %v", s.End, next.Start)
		}
	}
	if lost != res.Retries {
		t.Errorf("lost attempts = %d, want %d (res.Retries)", lost, res.Retries)
	}
}

func TestBuildMigrationMarkers(t *testing.T) {
	events, res, _ := scenario(t, sim.Options{
		Faults:    &faults.Plan{Failures: []faults.GPUFailure{{GPU: 0, Time: 5}}},
		Replanner: sched.NewHare(),
	})
	if res.TasksMigrated == 0 {
		t.Fatal("scenario migrated no tasks; move the failure earlier")
	}
	tr, err := span.Build(events)
	if err != nil {
		t.Fatal(err)
	}
	markers := 0
	for _, s := range tr.Spans {
		if s.Kind != span.KindTask || s.Attempt >= 0 {
			continue
		}
		markers++
		if !s.Lost || !s.Migrated || s.Note != "stranded" {
			t.Errorf("marker flags wrong: %+v", s)
		}
		if s.GPU != 0 {
			t.Errorf("marker on GPU %d, want failed GPU 0", s.GPU)
		}
		if s.Start != s.End {
			t.Errorf("marker has nonzero length: %+v", s)
		}
		// The re-execution is a sibling attempt of the same task,
		// flagged Migrated with From naming the failed device.
		found := false
		for _, r := range tr.Spans {
			if r.Kind == span.KindTask && r.Attempt >= 0 && r.Job == s.Job &&
				r.Round == s.Round && r.Index == s.Index {
				found = true
				if !r.Migrated || r.From != 0 {
					t.Errorf("re-execution not flagged migrated-from-0: %+v", r)
				}
				if r.GPU == 0 {
					t.Errorf("re-execution still on failed GPU: %+v", r)
				}
			}
		}
		if !found {
			t.Errorf("marker %+v has no executed sibling", s)
		}
	}
	if markers != res.TasksMigrated {
		t.Errorf("stranded markers = %d, want %d (res.TasksMigrated)", markers, res.TasksMigrated)
	}
}

// TestChromeSpansNested checks the flattening the chrome-trace "spans"
// process renders: children lie within their parents and parents come
// first, which is what slice containment nesting needs.
func TestChromeSpansNested(t *testing.T) {
	events, _, _ := scenario(t, sim.Options{})
	tr, err := span.Build(events)
	if err != nil {
		t.Fatal(err)
	}
	cs := span.ChromeSpans(tr)
	if len(cs) != len(tr.Spans) {
		t.Fatalf("chrome spans = %d, want %d", len(cs), len(tr.Spans))
	}
	const eps = 1e-9
	for i, s := range tr.Spans {
		if cs[i].Tid != s.Job {
			t.Errorf("span %d on lane %d, want job %d", i, cs[i].Tid, s.Job)
		}
		if s.Parent == span.NoID {
			continue
		}
		p := cs[s.Parent]
		if cs[i].Start < p.Start-eps || cs[i].End > p.End+eps {
			t.Errorf("span %d [%g,%g] outside parent [%g,%g]", i, cs[i].Start, cs[i].End, p.Start, p.End)
		}
	}
}
