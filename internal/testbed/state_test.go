package testbed

import (
	"testing"

	"hare/internal/core"
	"hare/internal/sched"
	"hare/internal/store"
)

// fuzzInstance is the fixed 3-job/3-GPU problem FuzzCoordApply folds
// arbitrary records into.
func fuzzInstance(t testing.TB) (*core.Instance, *core.Schedule) {
	in := &core.Instance{NumGPUs: 3}
	for id, shape := range [][2]int{{2, 2}, {3, 1}, {2, 3}} { // rounds, scale
		in.Jobs = append(in.Jobs, &core.Job{
			ID: core.JobID(id), Name: "fuzz", Model: "ResNet50", Weight: 1, Rounds: shape[0], Scale: shape[1],
		})
		in.Train = append(in.Train, []float64{1, 2, 3})
		in.Sync = append(in.Sync, []float64{0.1, 0.1, 0.1})
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	plan, err := sched.NewHare().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	return in, plan
}

// fuzzDim is FuzzCoordApply's gradient dimension: the problem's, since
// the input bytes only size the zero gradients.
const fuzzDim = ProblemDim

// fuzzRecords decodes fuzz input into journal records (and dispatches,
// Kind 0, which the live path performs through State.Next without
// journaling). Every index is drawn a little wider than its valid range,
// so in-range, negative and too-large values all occur.
func fuzzRecords(data []byte) []*Record {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(int8(b))
	}
	pick := func() int { return next() % 5 } // valid indices are 0..2
	task := func() core.TaskRef { return core.TaskRef{Job: core.JobID(pick()), Round: pick(), Index: pick()} }
	tasks := func(n int) []core.TaskRef {
		var out []core.TaskRef
		for ; n > 0; n-- {
			out = append(out, task())
		}
		return out
	}
	var recs []*Record
	for len(data) > 0 && len(recs) < 64 {
		rec := &Record{SimTime: float64(len(recs))}
		k := next()
		switch k & 7 {
		case 0:
			rec.GPU = pick()
		case 1, 2, 3:
			rec.Kind = RecPush
			end := float64(next()) / 8
			flags := next()
			dim := fuzzDim
			if flags&64 != 0 {
				dim--
			}
			rec.Push = PushReport{
				Task: task(), GPU: pick(), Start: end - 0.5, TrainEnd: end,
				Switch: float64(flags&3) * 0.1, Hit: flags&4 != 0, Retries: flags >> 3 & 1,
				Grad: make([]float64, dim),
			}
		case 4, 5:
			rec.Kind = RecFence
			flags := next()
			if flags&64 != 0 {
				break // fence record without a plan
			}
			fp := &FencePlan{GPU: pick(), Reason: "fuzz", Stranded: tasks(flags & 3), HasQueues: flags&4 != 0}
			if flags&8 != 0 {
				fp.Unrecoverable = "fuzz: unrecoverable"
			}
			n := 3
			if flags&16 != 0 {
				n = next() & 7
			}
			for ; n > 0; n-- {
				fp.Queues = append(fp.Queues, tasks(next()&3))
			}
			fp.Inflight = make([]core.TaskRef, len(fp.Queues))
			for g, q := range fp.Queues {
				fp.Inflight[g] = NoTask
				if flags&32 != 0 && len(q) > 0 {
					fp.Inflight[g], fp.Queues[g] = q[0], q[1:] // the head runs instead
				}
			}
			rec.Fence = fp
		case 6:
			rec.Kind, rec.GPU = RecReport, pick()
		default: // a recovery's epoch bump, or a kind no build knows
			rec.Kind = 77
			if k&8 != 0 {
				rec.Kind = RecRecover
			}
		}
		recs = append(recs, rec)
	}
	return recs
}

// FuzzCoordApply folds arbitrary record sequences into a fresh state:
// whatever the input, apply returns an error or a transition that
// keeps the state's invariants — never a panic. The seed corpus
// (testdata/fuzz/FuzzCoordApply) holds a complete fault-free run, a
// fence with a re-plan, a re-plan that restores the survivors' tasks in
// flight (fence-over-dispatch), an unrecoverable fence, recoveries
// between pushes, one of every rejected shape, and a few inputs the
// fuzzer found.
func FuzzCoordApply(f *testing.F) {
	in, plan := fuzzInstance(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		st := NewState(in, plan.Sequences(in.NumGPUs), store.NewMem())
		for n, rec := range fuzzRecords(data) {
			if rec.Kind == 0 {
				if st.CheckGPU(rec.GPU) == nil {
					st.Next(rec.GPU)
					checkInvariants(t, st, n, rec)
				}
				continue
			}
			before := len(st.done) + len(st.FenceLog)
			if _, err := st.Apply(rec); err != nil && len(st.done)+len(st.FenceLog) != before {
				t.Fatalf("record %d (%s): rejected with %v, but the state advanced", n, rec.KindName(), err)
			}
			checkInvariants(t, st, n, rec)
		}
	})
}

func checkInvariants(t *testing.T, st *State, n int, rec *Record) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("after record %d (%s): "+format, append([]any{n, rec.KindName()}, args...)...)
	}
	if st.Epoch != 1+uint64(st.Recovered) {
		fail("epoch %d after %d recoveries", st.Epoch, st.Recovered)
	}
	if want := st.in.NumTasks() - len(st.done); st.TasksLeft != want || len(st.Records) != len(st.done) {
		fail("TasksLeft=%d records=%d with %d done tasks (want %d left)", st.TasksLeft, len(st.Records), len(st.done), want)
	}
	pushed := 0
	for _, j := range st.in.Jobs {
		js := st.Jobs[j.ID]
		if len(js.Partial) >= j.Scale {
			fail("job %d round holds %d pushes of %d", j.ID, len(js.Partial), j.Scale)
		}
		for _, p := range js.Partial {
			if p.Task.Round != len(js.RoundEnds) {
				fail("job %d: a push of %v in the partial round after %d round ends", j.ID, p.Task, len(js.RoundEnds))
			}
		}
		pushed += len(js.RoundEnds)*j.Scale + len(js.Partial)
	}
	if pushed != len(st.done) {
		fail("parameter servers hold %d gradients, Done %d", pushed, len(st.done))
	}
	held := make(map[core.TaskRef]int) // unfinished task -> the live GPU holding it
	for g, gs := range st.GPUs {
		if gs.Failed && (len(gs.Queue) > 0 || gs.Inflight != NoTask) {
			fail("fenced GPU %d still owns work: queue %v inflight %v", g, gs.Queue, gs.Inflight)
		}
		for _, task := range gs.Queue {
			if _, done := st.done[task]; done {
				fail("task %v is both queued on GPU %d and done", task, g)
			}
		}
		work := gs.Queue
		if task, ok := st.Unclaimed(g); ok {
			work = append(work[:len(work):len(work)], task)
		}
		for _, task := range work {
			if h, dup := held[task]; dup {
				fail("unfinished task %v is held by GPU %d and GPU %d", task, h, g)
			}
			held[task] = g
		}
	}
}
