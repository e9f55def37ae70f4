package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hare/internal/stats"
)

func validInstance() *Instance {
	return &Instance{
		NumGPUs: 2,
		Jobs: []*Job{
			{ID: 0, Name: "a", Weight: 1, Rounds: 2, Scale: 1},
			{ID: 1, Name: "b", Weight: 2, Arrival: 1, Rounds: 1, Scale: 2},
		},
		Train: [][]float64{{2, 4}, {1, 3}},
		Sync:  [][]float64{{0.5, 0.5}, {0.2, 0.2}},
	}
}

func TestInstanceValidate(t *testing.T) {
	if err := validInstance().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Instance)
		want   string
	}{
		{"no GPUs", func(in *Instance) { in.NumGPUs = 0 }, "GPUs"},
		{"no jobs", func(in *Instance) { in.Jobs = nil }, "no jobs"},
		{"bad ID", func(in *Instance) { in.Jobs[1].ID = 5 }, "ID"},
		{"zero rounds", func(in *Instance) { in.Jobs[0].Rounds = 0 }, "rounds"},
		{"zero weight", func(in *Instance) { in.Jobs[0].Weight = 0 }, "weight"},
		{"negative arrival", func(in *Instance) { in.Jobs[0].Arrival = -1 }, "arrival"},
		{"ragged train", func(in *Instance) { in.Train[0] = []float64{1} }, "entries"},
		{"zero train", func(in *Instance) { in.Train[0][0] = 0 }, "train time"},
		{"NaN sync", func(in *Instance) { in.Sync[0][0] = math.NaN() }, "sync time"},
	}
	for _, c := range cases {
		in := validInstance()
		c.mutate(in)
		err := in.Validate()
		if err == nil {
			t.Errorf("%s: no error", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestTasksEnumeration: a schedule enumerates its placed tasks in
// (job, round, index) order, whatever order they were placed in, and
// skips the ones not placed.
func TestTasksEnumeration(t *testing.T) {
	in := validInstance()
	s := NewSchedule(in)
	want := []TaskRef{
		{Job: 0, Round: 0, Index: 0}, {Job: 0, Round: 1, Index: 0},
		{Job: 1, Round: 0, Index: 0}, {Job: 1, Round: 0, Index: 1},
	}
	for i := len(want) - 1; i >= 0; i-- {
		s.Place(want[i], i%2, float64(i))
	}
	var got []TaskRef
	s.Each(func(tr TaskRef, p Placement) {
		if i := len(got); p != (Placement{GPU: i % 2, Start: float64(i)}) {
			t.Errorf("%v: %+v", tr, p)
		}
		got = append(got, tr)
	})
	if len(got) != in.NumTasks() || len(got) != 4 {
		t.Fatalf("got %d tasks", len(got))
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("tasks[%d] = %v, want %v", i, got[i], w)
		}
	}
	s = NewSchedule(in)
	s.Place(want[2], 1, 3)
	n := 0
	s.Each(func(TaskRef, Placement) { n++ })
	if n != 1 {
		t.Errorf("%d tasks enumerated, one placed", n)
	}
}

func TestAlpha(t *testing.T) {
	in := validInstance()
	// Job 0: 4/2 = 2 train spread, sync equal; job 1: 3/1 = 3.
	if a := in.Alpha(); math.Abs(a-3) > 1e-9 {
		t.Errorf("alpha %g, want 3", a)
	}
}

func TestScheduleAccounting(t *testing.T) {
	in := validInstance()
	s := NewSchedule(in)
	s.Place(TaskRef{Job: 0, Round: 0}, 0, 0)           // end 2.5
	s.Place(TaskRef{Job: 0, Round: 1}, 0, 2.5)         // end 5.0
	s.Place(TaskRef{Job: 1, Round: 0}, 0, 5)           // train on g0: end 6.2
	s.Place(TaskRef{Job: 1, Round: 0, Index: 1}, 1, 1) // end 4.2
	if err := ValidateSchedule(in, s); err != nil {
		t.Fatal(err)
	}
	comps := s.JobCompletions(in)
	if math.Abs(comps[0]-5.0) > 1e-9 {
		t.Errorf("job 0 completion %g, want 5", comps[0])
	}
	if math.Abs(comps[1]-6.2) > 1e-9 {
		t.Errorf("job 1 completion %g, want 6.2", comps[1])
	}
	if w := s.WeightedJCT(in); math.Abs(w-(1*5.0+2*6.2)) > 1e-9 {
		t.Errorf("weighted JCT %g", w)
	}
	if m := s.Makespan(in); math.Abs(m-6.2) > 1e-9 {
		t.Errorf("makespan %g", m)
	}
}

func TestValidateCatchesArrivalViolation(t *testing.T) {
	in := validInstance()
	s := NewSchedule(in)
	s.Place(TaskRef{Job: 0, Round: 0}, 0, 0)
	s.Place(TaskRef{Job: 0, Round: 1}, 0, 2.5)
	s.Place(TaskRef{Job: 1, Round: 0}, 1, 0.5) // arrives at 1
	s.Place(TaskRef{Job: 1, Round: 0, Index: 1}, 1, 4)
	if err := ValidateSchedule(in, s); err == nil || !strings.Contains(err.Error(), "constraint 4") {
		t.Errorf("arrival violation not caught: %v", err)
	}
}

func TestValidateCatchesMissingPlacement(t *testing.T) {
	in := validInstance()
	s := NewSchedule(in)
	s.Place(TaskRef{Job: 0, Round: 0}, 0, 0)
	if err := ValidateSchedule(in, s); err == nil || !strings.Contains(err.Error(), "constraint 5") {
		t.Errorf("missing placement not caught: %v", err)
	}
}

func TestValidateCatchesBarrierViolation(t *testing.T) {
	in := validInstance()
	s := NewSchedule(in)
	s.Place(TaskRef{Job: 0, Round: 0}, 0, 0)   // ends 2.5 (sync incl.)
	s.Place(TaskRef{Job: 0, Round: 1}, 1, 2.0) // starts before barrier
	s.Place(TaskRef{Job: 1, Round: 0}, 0, 2)
	s.Place(TaskRef{Job: 1, Round: 0, Index: 1}, 1, 6)
	if err := ValidateSchedule(in, s); err == nil || !strings.Contains(err.Error(), "constraint 7") {
		t.Errorf("barrier violation not caught: %v", err)
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	in := validInstance()
	s := NewSchedule(in)
	s.Place(TaskRef{Job: 0, Round: 0}, 0, 0) // train [0,2)
	s.Place(TaskRef{Job: 1, Round: 0}, 0, 1) // overlaps on GPU 0
	s.Place(TaskRef{Job: 0, Round: 1}, 1, 2.5)
	s.Place(TaskRef{Job: 1, Round: 0, Index: 1}, 1, 8)
	if err := ValidateSchedule(in, s); err == nil || !strings.Contains(err.Error(), "constraint 8") {
		t.Errorf("overlap not caught: %v", err)
	}
}

func TestValidateSyncOverlapAllowed(t *testing.T) {
	// A successor may start during the predecessor's sync window —
	// communication is off the GPU.
	in := validInstance()
	s := NewSchedule(in)
	s.Place(TaskRef{Job: 0, Round: 0}, 0, 0) // train [0,2), sync to 2.5
	s.Place(TaskRef{Job: 1, Round: 0}, 0, 2) // starts at train end
	s.Place(TaskRef{Job: 1, Round: 0, Index: 1}, 1, 1)
	s.Place(TaskRef{Job: 0, Round: 1}, 1, 4.2) // after barrier 2.5 and g1 free
	if err := ValidateSchedule(in, s); err != nil {
		t.Errorf("sync-overlapped schedule rejected: %v", err)
	}
}

func TestSequencesOrdering(t *testing.T) {
	s := NewSchedule(validInstance())
	s.Place(TaskRef{Job: 0, Round: 1}, 0, 5)
	s.Place(TaskRef{Job: 0, Round: 0}, 0, 1)
	s.Place(TaskRef{Job: 1, Round: 0}, 1, 2)
	s.Place(TaskRef{Job: 1, Round: 0, Index: 1}, 1, 2)
	seqs := s.Sequences(2)
	if len(seqs[0]) != 2 || seqs[0][0].Round != 0 {
		t.Errorf("GPU0 sequence %v", seqs[0])
	}
	// Equal starts tie-break deterministically by task identity.
	if seqs[1][0].Index != 0 || seqs[1][1].Index != 1 {
		t.Errorf("GPU1 tie-break %v", seqs[1])
	}
}

// TestJobCompletionsIncompleteNaN: missing tasks yield NaN, and
// WeightedJCT propagates it.
func TestJobCompletionsIncompleteNaN(t *testing.T) {
	in := validInstance()
	s := NewSchedule(in)
	s.Place(TaskRef{Job: 0, Round: 0}, 0, 0)
	comps := s.JobCompletions(in)
	if !math.IsNaN(comps[0]) || !math.IsNaN(comps[1]) {
		t.Errorf("incomplete jobs not NaN: %v", comps)
	}
	if !math.IsNaN(s.WeightedJCT(in)) {
		t.Error("WeightedJCT of incomplete schedule not NaN")
	}
}

// TestRandomScheduleRoundTrip fuzz-checks that a start-time-sorted
// greedy dispatch always yields a schedule ValidateSchedule accepts.
func TestRandomScheduleRoundTrip(t *testing.T) {
	rng := stats.New(51)
	for trial := 0; trial < 50; trial++ {
		nm := 1 + rng.Intn(3)
		in := &Instance{NumGPUs: nm}
		nj := 1 + rng.Intn(3)
		for j := 0; j < nj; j++ {
			in.Jobs = append(in.Jobs, &Job{
				ID: JobID(j), Name: "f", Weight: 1,
				Arrival: rng.Uniform(0, 5),
				Rounds:  1 + rng.Intn(3), Scale: 1 + rng.Intn(2),
			})
			tr := make([]float64, nm)
			sy := make([]float64, nm)
			for m := 0; m < nm; m++ {
				tr[m] = rng.Uniform(0.5, 4)
				sy[m] = rng.Uniform(0, 1)
			}
			in.Train = append(in.Train, tr)
			in.Sync = append(in.Sync, sy)
		}
		s := greedyDispatch(in, rng)
		if err := ValidateSchedule(in, s); err != nil {
			t.Fatalf("trial %d: greedy dispatch infeasible: %v", trial, err)
		}
	}
}

// greedyDispatch is an intentionally naive scheduler used to fuzz the
// validator: rounds in order, random GPU, earliest feasible start.
func greedyDispatch(in *Instance, rng *stats.RNG) *Schedule {
	s := NewSchedule(in)
	free := make([]float64, in.NumGPUs)
	barrier := make([]float64, len(in.Jobs))
	for _, j := range in.Jobs {
		barrier[j.ID] = j.Arrival
	}
	// Interleave jobs round-robin.
	progress := make([]int, len(in.Jobs)) // next round
	for done := 0; done < len(in.Jobs); {
		done = 0
		for _, j := range in.Jobs {
			r := progress[j.ID]
			if r >= j.Rounds {
				done++
				continue
			}
			end := barrier[j.ID]
			for k := 0; k < j.Scale; k++ {
				m := rng.Intn(in.NumGPUs)
				start := math.Max(barrier[j.ID], free[m])
				s.Place(TaskRef{Job: j.ID, Round: r, Index: k}, m, start)
				free[m] = start + in.Train[j.ID][m]
				if e := start + in.Train[j.ID][m] + in.Sync[j.ID][m]; e > end {
					end = e
				}
			}
			barrier[j.ID] = end
			progress[j.ID]++
		}
	}
	return s
}

// gridInstance has jobs × rounds × scale tasks on numGPUs GPUs.
func gridInstance(jobs, rounds, scale, numGPUs int) *Instance {
	in := &Instance{NumGPUs: numGPUs}
	for j := 0; j < jobs; j++ {
		in.Jobs = append(in.Jobs, &Job{ID: JobID(j), Weight: 1, Rounds: rounds, Scale: scale})
		in.Train = append(in.Train, make([]float64, numGPUs))
		in.Sync = append(in.Sync, make([]float64, numGPUs))
	}
	return in
}

// TestSequencesIntoMatchesSequences cross-checks the buffer-reusing
// derivation against a sort of every placed task on (start, task),
// reusing one buffer across schedules of different shapes, some tasks
// placed twice and some not at all.
func TestSequencesIntoMatchesSequences(t *testing.T) {
	rng := stats.New(61)
	var buf SeqBuffer
	for trial := 0; trial < 30; trial++ {
		numGPUs := 1 + rng.Intn(12)
		s := NewSchedule(gridInstance(1+rng.Intn(20), 1+rng.Intn(5), 1+rng.Intn(4), numGPUs))
		n := rng.Intn(200)
		for i := 0; i < n; i++ {
			t := TaskRef{Job: JobID(rng.Intn(20)), Round: rng.Intn(5), Index: rng.Intn(4)}
			if _, ok := s.slot(t); ok {
				// Coarse starts force start ties resolved by task identity.
				s.Place(t, rng.Intn(numGPUs), float64(rng.Intn(8)))
			}
		}
		want := make([][]TaskRef, numGPUs)
		var all []placedTask
		s.Each(func(t TaskRef, p Placement) { all = append(all, placedTask{t: t, start: p.Start}) })
		sort.Slice(all, func(a, b int) bool {
			if all[a].start != all[b].start {
				return all[a].start < all[b].start
			}
			return lessTask(all[a].t, all[b].t)
		})
		for _, pt := range all {
			p, _ := s.At(pt.t)
			want[p.GPU] = append(want[p.GPU], pt.t)
		}
		for _, got := range [][][]TaskRef{s.SequencesInto(&buf, numGPUs), s.Sequences(numGPUs)} {
			if len(got) != len(want) {
				t.Fatalf("trial %d: %d GPUs, want %d", trial, len(got), len(want))
			}
			for m := range want {
				if len(got[m]) != len(want[m]) {
					t.Fatalf("trial %d GPU %d: len %d, want %d", trial, m, len(got[m]), len(want[m]))
				}
				for i := range want[m] {
					if got[m][i] != want[m][i] {
						t.Fatalf("trial %d GPU %d pos %d: %v, want %v", trial, m, i, got[m][i], want[m][i])
					}
				}
			}
		}
	}
}

// TestValidateSplitMatchesCombined pins that ValidSequences reproduces
// ValidateSchedule's verdicts (including error text) on valid and
// broken schedules, with a reused buffer, and that the sequences it
// returns are Sequences'.
func TestValidateSplitMatchesCombined(t *testing.T) {
	in := &Instance{
		Jobs: []*Job{
			{ID: 0, Weight: 1, Rounds: 2, Scale: 2},
			{ID: 1, Weight: 1, Arrival: 5, Rounds: 1, Scale: 1},
		},
		NumGPUs: 2,
		Train:   [][]float64{{1, 2}, {3, 4}},
		Sync:    [][]float64{{0.5, 0.5}, {0, 0}},
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	plan := func(edit func(*Schedule)) *Schedule {
		s := NewSchedule(in)
		s.Place(TaskRef{0, 0, 0}, 0, 0)
		s.Place(TaskRef{0, 0, 1}, 1, 0)
		s.Place(TaskRef{0, 1, 0}, 0, 2.5)
		s.Place(TaskRef{0, 1, 1}, 1, 2.5)
		s.Place(TaskRef{1, 0, 0}, 0, 5)
		edit(s)
		return s
	}
	cases := []struct {
		name string
		s    *Schedule
	}{
		{"valid", plan(func(*Schedule) {})},
		{"bad-gpu", plan(func(s *Schedule) { s.Place(TaskRef{1, 0, 0}, 99, 5) })},                                   // constraint-5 range violation
		{"bad-barrier", plan(func(s *Schedule) { s.Place(TaskRef{0, 1, 0}, 0, 1) })},                                // starts before round-0 barrier
		{"unplaced", plan(func(s *Schedule) { s.Place(TaskRef{0, 1, 1}, -1, 0) })},                                  // a negative GPU unplaces
		{"bad-start", plan(func(s *Schedule) { s.Place(TaskRef{0, 1, 1}, 1, math.Inf(1)) })},                        // non-finite start
		{"overlap", plan(func(s *Schedule) { s.Place(TaskRef{1, 0, 0}, 1, 5); s.Place(TaskRef{0, 1, 1}, 1, 5.5) })}, // GPU 1: [5,9) and [5.5,7.5)
	}
	var buf SeqBuffer
	for _, tc := range cases {
		name, s := tc.name, tc.s
		combined := ValidateSchedule(in, s)
		seqs, split := s.ValidSequences(in, &buf)
		switch {
		case (combined == nil) != (split == nil):
			t.Errorf("%s: combined err %v, split err %v", name, combined, split)
		case combined != nil && combined.Error() != split.Error():
			t.Errorf("%s: combined %q, split %q", name, combined, split)
		case split == nil && !reflect.DeepEqual(seqs, s.Sequences(in.NumGPUs)):
			t.Errorf("%s: ValidSequences %v, Sequences %v", name, seqs, s.Sequences(in.NumGPUs))
		}
	}
}

// TestScheduleContract covers the schedule's edges: a GPU past the
// fleet and a non-finite start are named by ValidateSchedule, a task
// outside the shape cannot be placed (the panic names it) and is never
// placed, and a schedule shaped for a larger instance does not fit a
// smaller one.
func TestScheduleContract(t *testing.T) {
	in := validInstance()
	full := func() *Schedule {
		s := NewSchedule(in)
		s.Place(TaskRef{Job: 0, Round: 0}, 0, 0)
		s.Place(TaskRef{Job: 0, Round: 1}, 0, 2.5)
		s.Place(TaskRef{Job: 1, Round: 0}, 0, 5)
		s.Place(TaskRef{Job: 1, Round: 0, Index: 1}, 1, 1)
		return s
	}
	if err := ValidateSchedule(in, full()); err != nil {
		t.Fatal(err)
	}
	s := full()
	s.Place(TaskRef{Job: 1, Round: 0, Index: 1}, in.NumGPUs, 1)
	if err := ValidateSchedule(in, s); err == nil || !strings.Contains(err.Error(), "j1/r0/t1 placed on invalid GPU 2") {
		t.Errorf("GPU past the fleet: %v", err)
	}
	s = full()
	s.Place(TaskRef{Job: 0, Round: 1}, 0, math.NaN())
	if err := ValidateSchedule(in, s); err == nil || !strings.Contains(err.Error(), "j0/r1/t0 has invalid start NaN") {
		t.Errorf("NaN start: %v", err)
	}

	for _, tr := range []TaskRef{
		{Job: -1}, {Job: 2}, {Job: 0, Round: 2}, {Job: 0, Round: -1},
		{Job: 0, Index: 1}, {Job: 1, Index: -1}, {Job: 1, Round: 1 << 40},
	} {
		if p, ok := full().At(tr); ok {
			t.Errorf("At(%v) = %+v, true outside the shape", tr, p)
		}
		if _, ok := full().TaskEnd(in, tr); ok {
			t.Errorf("TaskEnd(%v) ok outside the shape", tr)
		}
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, tr.String()) {
					t.Errorf("Place(%v) panicked with %q, want the task named", tr, msg)
				}
			}()
			full().Place(tr, 0, 0)
		}()
	}

	bigger := &Instance{
		NumGPUs: in.NumGPUs,
		Jobs:    append(append([]*Job(nil), in.Jobs...), &Job{ID: 2, Weight: 1, Rounds: 1, Scale: 1}),
		Train:   append(append([][]float64(nil), in.Train...), []float64{1, 1}),
		Sync:    append(append([][]float64(nil), in.Sync...), []float64{0, 0}),
	}
	s = NewSchedule(bigger)
	full().Each(func(tr TaskRef, p Placement) { s.Place(tr, p.GPU, p.Start) })
	if err := ValidateSchedule(in, s); err == nil || !strings.Contains(err.Error(), "5 task slots for 4 tasks") {
		t.Errorf("schedule for a larger instance: %v", err)
	}
}
