package faults

import (
	"strings"
	"testing"

	"hare/internal/core"
)

func TestParseRoundTrip(t *testing.T) {
	spec := "rate=0.05,seed=7,fail=3@120,crash=1@60,slow=2x1.5"
	p, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.Rate != 0.05 || p.Seed != 7 {
		t.Fatalf("rate/seed = %g/%d", p.Rate, p.Seed)
	}
	if len(p.Failures) != 2 || len(p.Stragglers) != 1 {
		t.Fatalf("failures/stragglers = %d/%d", len(p.Failures), len(p.Stragglers))
	}
	if p.Failures[0] != (GPUFailure{GPU: 3, Time: 120}) {
		t.Fatalf("fail = %+v", p.Failures[0])
	}
	if p.Failures[1] != (GPUFailure{GPU: 1, Time: 60, Crash: true}) {
		t.Fatalf("crash = %+v", p.Failures[1])
	}
	if p.Stragglers[0] != (Straggler{GPU: 2, Factor: 1.5}) {
		t.Fatalf("slow = %+v", p.Stragglers[0])
	}
	// String renders back to a spec Parse accepts, field for field.
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("Parse(String): %v", err)
	}
	if p2.String() != p.String() {
		t.Fatalf("round trip: %q vs %q", p2.String(), p.String())
	}
}

func TestParseEmptyAndErrors(t *testing.T) {
	if p, err := Parse("  "); err != nil || !p.Empty() {
		t.Fatalf("empty spec: %v %+v", err, p)
	}
	for _, bad := range []string{
		"rate", "rate=x", "rate=1.5", "rate=-0.1",
		"seed=x", "fail=3", "fail=x@2", "fail=3@x", "fail=3@-1",
		"slow=2", "slow=x2", "slow=2x0.5", "bogus=1",
		"fail=3@1,fail=3@2", "slow=1x2,slow=1x3",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestValidateRangeChecks(t *testing.T) {
	p := &Plan{Failures: []GPUFailure{{GPU: 5, Time: 1}}}
	if err := p.Validate(0); err != nil {
		t.Fatalf("unbounded validate: %v", err)
	}
	if err := p.Validate(4); err == nil {
		t.Fatal("GPU 5 accepted in a 4-GPU fleet")
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(4); err != nil {
		t.Fatalf("nil plan: %v", err)
	}
}

func TestNilSafeHelpers(t *testing.T) {
	var p *Plan
	if !p.Empty() || p.HasGPUFailures() || p.TransientRate() != 0 || p.SlowdownOf(3) != 1 {
		t.Fatal("nil plan helpers misbehave")
	}
	if _, ok := p.FailureOf(0); ok {
		t.Fatal("nil plan has a failure")
	}
	if p.String() != "" || p.SortedFailures() != nil {
		t.Fatal("nil plan renders non-empty")
	}
}

func TestSortedFailures(t *testing.T) {
	p := &Plan{Failures: []GPUFailure{{GPU: 2, Time: 50}, {GPU: 0, Time: 10}, {GPU: 1, Time: 10}}}
	got := p.SortedFailures()
	want := []GPUFailure{{GPU: 0, Time: 10}, {GPU: 1, Time: 10}, {GPU: 2, Time: 50}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestRetrySeedDistinctPerGPU(t *testing.T) {
	seen := make(map[int64]bool)
	for g := 0; g < 32; g++ {
		s := RetrySeed(42, g)
		if seen[s] {
			t.Fatalf("duplicate retry seed for gpu %d", g)
		}
		seen[s] = true
	}
}

// twoJobInstance builds a small 3-GPU instance: job 0 with 3 rounds ×
// scale 2, job 1 with 2 rounds × scale 1.
func twoJobInstance() *core.Instance {
	return &core.Instance{
		NumGPUs: 3,
		Jobs: []*core.Job{
			{ID: 0, Name: "a", Weight: 1, Rounds: 3, Scale: 2},
			{ID: 1, Name: "b", Weight: 2, Rounds: 2, Scale: 1, Arrival: 5},
		},
		Train: [][]float64{{1, 2, 3}, {4, 5, 6}},
		Sync:  [][]float64{{0.1, 0.2, 0.3}, {0.4, 0.5, 0.6}},
	}
}

func TestResidualBuildsShrunkenInstance(t *testing.T) {
	in := twoJobInstance()
	// GPU 1 died. Job 0: round 1 partially done (index 0 done/in
	// flight, index 1 pending) plus all of round 2; job 1 fully done.
	pending := []core.TaskRef{
		{Job: 0, Round: 1, Index: 1},
		{Job: 0, Round: 2, Index: 0},
		{Job: 0, Round: 2, Index: 1},
	}
	res, err := NewResidual(in, pending, []int{0, 2})
	if err != nil {
		t.Fatalf("NewResidual: %v", err)
	}
	ri := res.Instance
	if ri.NumGPUs != 2 || len(ri.Jobs) != 1 {
		t.Fatalf("residual has %d GPUs, %d jobs", ri.NumGPUs, len(ri.Jobs))
	}
	if ri.Jobs[0].Rounds != 2 || ri.Jobs[0].Scale != 2 || ri.Jobs[0].Weight != 1 {
		t.Fatalf("residual job = %+v", ri.Jobs[0])
	}
	// Time rows keep only the surviving GPUs' columns.
	if ri.Train[0][0] != 1 || ri.Train[0][1] != 3 || ri.Sync[0][1] != 0.3 {
		t.Fatalf("residual times = %+v / %+v", ri.Train, ri.Sync)
	}
	// Mapping back: residual round 0 is original round 1.
	ot := res.ToOriginal(core.TaskRef{Job: 0, Round: 0, Index: 1})
	if ot != (core.TaskRef{Job: 0, Round: 1, Index: 1}) {
		t.Fatalf("ToOriginal = %v", ot)
	}
}

func TestResidualSequencesFilterAndRemap(t *testing.T) {
	in := twoJobInstance()
	pending := []core.TaskRef{
		{Job: 0, Round: 1, Index: 1},
		{Job: 0, Round: 2, Index: 0},
		{Job: 0, Round: 2, Index: 1},
	}
	res, err := NewResidual(in, pending, []int{0, 2})
	if err != nil {
		t.Fatalf("NewResidual: %v", err)
	}
	// Hand-build a feasible residual plan: round 0 on both GPUs, round
	// 1 on both GPUs after the barrier.
	plan := core.NewSchedule(res.Instance)
	plan.Place(core.TaskRef{Job: 0, Round: 0, Index: 0}, 0, 0)
	plan.Place(core.TaskRef{Job: 0, Round: 0, Index: 1}, 1, 0)
	plan.Place(core.TaskRef{Job: 0, Round: 1, Index: 0}, 0, 10)
	plan.Place(core.TaskRef{Job: 0, Round: 1, Index: 1}, 1, 10)
	seqs, err := res.Sequences(plan)
	if err != nil {
		t.Fatalf("Sequences: %v", err)
	}
	if len(seqs) != in.NumGPUs {
		t.Fatalf("got %d sequences for %d original GPUs", len(seqs), in.NumGPUs)
	}
	if len(seqs[1]) != 0 {
		t.Fatalf("dead GPU 1 received tasks: %v", seqs[1])
	}
	// Residual GPU 1 maps to original GPU 2; residual (r0,i0) was not
	// pending and must be dropped.
	if len(seqs[0]) != 1 || seqs[0][0] != (core.TaskRef{Job: 0, Round: 2, Index: 0}) {
		t.Fatalf("gpu0 seq = %v", seqs[0])
	}
	want2 := []core.TaskRef{{Job: 0, Round: 1, Index: 1}, {Job: 0, Round: 2, Index: 1}}
	if len(seqs[2]) != 2 || seqs[2][0] != want2[0] || seqs[2][1] != want2[1] {
		t.Fatalf("gpu2 seq = %v", seqs[2])
	}
}

// TestResidualSplitsOversizedRounds: a job whose Scale exceeds the
// surviving GPU count is re-stated as virtual sub-rounds the planners
// can place, and every pending task still maps back exactly once.
func TestResidualSplitsOversizedRounds(t *testing.T) {
	in := &core.Instance{
		NumGPUs: 4,
		Jobs:    []*core.Job{{ID: 0, Name: "wide", Weight: 1, Rounds: 2, Scale: 4}},
		Train:   [][]float64{{1, 1, 1, 1}},
		Sync:    [][]float64{{0.1, 0.1, 0.1, 0.1}},
	}
	// GPUs 2 and 3 died with round 1 entirely pending: 4-wide rounds
	// must now fit on 2 survivors.
	pending := []core.TaskRef{
		{Job: 0, Round: 1, Index: 0}, {Job: 0, Round: 1, Index: 1},
		{Job: 0, Round: 1, Index: 2}, {Job: 0, Round: 1, Index: 3},
	}
	res, err := NewResidual(in, pending, []int{0, 1})
	if err != nil {
		t.Fatalf("NewResidual: %v", err)
	}
	rj := res.Instance.Jobs[0]
	if rj.Scale > res.Instance.NumGPUs {
		t.Fatalf("residual scale %d still exceeds %d survivors", rj.Scale, res.Instance.NumGPUs)
	}
	if rj.Rounds*rj.Scale < len(pending) {
		t.Fatalf("residual capacity %d×%d cannot hold %d pending tasks", rj.Rounds, rj.Scale, len(pending))
	}
	// Every virtual task maps to a distinct slot; the pending ones cover
	// the original round exactly.
	covered := make(map[core.TaskRef]bool)
	for r := 0; r < rj.Rounds; r++ {
		for i := 0; i < rj.Scale; i++ {
			ot := res.ToOriginal(core.TaskRef{Job: 0, Round: r, Index: i})
			if covered[ot] {
				t.Fatalf("slot %v covered twice", ot)
			}
			covered[ot] = true
		}
	}
	for _, p := range pending {
		if !covered[p] {
			t.Fatalf("pending task %v unreachable from the residual", p)
		}
	}
	// A feasible plan over the virtual rounds converts to sequences
	// that execute each pending task exactly once, on survivors only.
	plan := core.NewSchedule(res.Instance)
	for r := 0; r < rj.Rounds; r++ {
		for i := 0; i < rj.Scale; i++ {
			plan.Place(core.TaskRef{Job: 0, Round: r, Index: i}, i%2, float64(r*10))
		}
	}
	seqs, err := res.Sequences(plan)
	if err != nil {
		t.Fatalf("Sequences: %v", err)
	}
	var got []core.TaskRef
	for g, seq := range seqs {
		if g >= 2 && len(seq) != 0 {
			t.Fatalf("dead gpu%d received tasks: %v", g, seq)
		}
		got = append(got, seq...)
	}
	if len(got) != len(pending) {
		t.Fatalf("sequences execute %d tasks, want %d: %v", len(got), len(pending), got)
	}
	onceMore := make(map[core.TaskRef]bool)
	for _, ot := range got {
		if onceMore[ot] {
			t.Fatalf("task %v scheduled twice", ot)
		}
		onceMore[ot] = true
	}
}

func TestResidualErrors(t *testing.T) {
	in := twoJobInstance()
	pending := []core.TaskRef{{Job: 0, Round: 0, Index: 0}}
	if _, err := NewResidual(in, pending, nil); err == nil || !strings.Contains(err.Error(), "unrecoverable") {
		t.Fatalf("no survivors: %v", err)
	}
	if _, err := NewResidual(in, nil, []int{0}); err == nil {
		t.Fatal("no pending tasks accepted")
	}
	if _, err := NewResidual(in, []core.TaskRef{{Job: 9}}, []int{0}); err == nil {
		t.Fatal("unknown job accepted")
	}
	if _, err := NewResidual(in, pending, []int{0, 0}); err == nil {
		t.Fatal("duplicate survivor accepted")
	}
	if _, err := NewResidual(in, pending, []int{7}); err == nil {
		t.Fatal("out-of-range survivor accepted")
	}
}
