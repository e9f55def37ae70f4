package sched

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/obs"
	"hare/internal/stats"
	"hare/internal/trace"
	"hare/internal/workload"
)

// checkAgainstReference fails unless OnlineHare, Hare and Hare-EA
// agree with the reference on in: equal placements,
// equal committed-decision event streams. The reference plans OnlineHare
// at every distinct arrival and offline Hare once, at −∞.
func checkAgainstReference(t *testing.T, in *core.Instance) {
	t.Helper()
	online, offline := arrivalEpochs(in), []float64{math.Inf(-1)}
	for _, c := range []struct {
		name string
		algo interface {
			Algorithm
			SetRecorder(*obs.Recorder)
		}
		ref *refOnline
	}{
		{"online/EFT", NewOnlineHare(),
			&refOnline{Pick: PickEarliestFinish, epochs: online, note: "online/earliest-finish"}},
		{"Hare-EA", NewHareEA(), &refOnline{Pick: PickEarliestAvailable, epochs: offline, note: "earliest-available"}},
		{"Hare", NewHare(), &refOnline{Pick: PickEarliestFinish, epochs: offline, note: "earliest-finish"}},
	} {
		gotEv, wantEv := obs.NewCollectSink(), obs.NewCollectSink()
		c.algo.SetRecorder(obs.NewRecorder(gotEv))
		got, err := c.algo.Schedule(in)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		c.ref.rec = obs.NewRecorder(wantEv)
		want, err := c.ref.Schedule(in)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: schedule differs from the reference", c.name)
		}
		if !reflect.DeepEqual(gotEv.Events(), wantEv.Events()) {
			t.Fatalf("%s: decision stream differs from the reference", c.name)
		}
		if n := len(gotEv.Events()); n != in.NumTasks() {
			t.Fatalf("%s: %d decision events for %d tasks", c.name, n, in.NumTasks())
		}
	}
}

// reshape bends a random instance into one of the shapes the planner
// treats specially; shape 0 leaves it alone.
func reshape(in *core.Instance, shape int) {
	for _, j := range in.Jobs {
		switch shape {
		case 1: // tied arrivals: a handful of shared epochs
			j.Arrival = 10 * math.Floor(j.Arrival/10)
		case 2: // one epoch
			j.Arrival = 0
		case 3: // every round needs the whole fleet
			j.Scale = in.NumGPUs
		case 4: // GPU 0 is too slow for EFT to pick, so it idles
			in.Train[j.ID][0] *= 100
		}
	}
}

// shapes is the number of shapes reshape knows.
const shapes = 5

func TestOnlineMatchesReference(t *testing.T) {
	rng := stats.New(20260927)
	for trial := 0; trial < 240; trial++ {
		maxJobs, maxGPUs := 12, 8
		if trial%8 == 7 { // big enough that most epochs stop early
			maxJobs, maxGPUs = 48, 16
		}
		in := randomInstance(rng.Split(), maxJobs, maxGPUs)
		reshape(in, trial%4)
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) { checkAgainstReference(t, in) })
	}
	// An idle slow GPU keeps min φ below the next arrival however much of
	// π is placed, so only the jobs' readiness can end an epoch early.
	for trial := 0; trial < 48; trial++ {
		maxJobs, maxGPUs := 12, 8
		if trial%4 == 3 {
			maxJobs, maxGPUs = 48, 16
		}
		in := randomInstance(rng.Split(), maxJobs, maxGPUs)
		reshape(in, 4)
		t.Run(fmt.Sprintf("slowgpu%d", trial), func(t *testing.T) { checkAgainstReference(t, in) })
	}
	// The benchmark's shape: model-zoo jobs of many rounds, bursty
	// arrivals, far more work per epoch than an epoch commits.
	for seed := int64(1); seed <= 4; seed++ {
		in := generatedInstance(t, 60, 32, 600, seed)
		t.Run(fmt.Sprintf("generated%d", seed), func(t *testing.T) { checkAgainstReference(t, in) })
	}
}

// FuzzOnlineMatchesReference drives tiny instances (≤ 6 jobs, ≤ 4 GPUs,
// ≤ 4 rounds) drawn from seed and bent into shape: new ≡ reference, the
// plan validates, committed work is never revoked.
func FuzzOnlineMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 2*shapes; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		in := randomInstance(stats.New(seed), 6, 4)
		reshape(in, int(shape%shapes))
		checkAgainstReference(t, in)
		s, err := NewOnlineHare().Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.ValidateSchedule(in, s); err != nil {
			t.Fatalf("infeasible: %v", err)
		}
		// Committed work is never revoked: a task planned to start
		// before the last arrival keeps its placement when that last
		// job is taken away.
		n := len(in.Jobs) - 1
		last := in.Jobs[n]
		if n == 0 {
			return
		}
		for _, j := range in.Jobs {
			if j.Arrival > last.Arrival {
				return // the last job is not the last arrival
			}
		}
		short := &core.Instance{Jobs: in.Jobs[:n], NumGPUs: in.NumGPUs, Train: in.Train[:n], Sync: in.Sync[:n]}
		before, err := NewOnlineHare().Schedule(short)
		if err != nil {
			t.Fatal(err)
		}
		before.Each(func(tr core.TaskRef, p core.Placement) {
			if p.Start < last.Arrival && at(s, tr) != p {
				t.Fatalf("task %v started at %g, before the arrival at %g, yet moved: %+v -> %+v",
					tr, p.Start, last.Arrival, p, at(s, tr))
			}
		})
	})
}

// placementHash fingerprints a schedule: every placement, in task
// order, start times at full float64 precision.
func placementHash(in *core.Instance, s *core.Schedule) uint64 {
	h := fnv.New64a()
	for _, t := range allTasks(in) {
		p := at(s, t)
		fmt.Fprintf(h, "%v|%d|%.17g\n", t, p.GPU, p.Start)
	}
	return h.Sum64()
}

// generatedInstance builds a model-zoo workload the way sim's
// goldenWorkload does: seeded arrivals over the horizon, generated job
// specs, profiled times on a high-heterogeneity fleet.
func generatedInstance(t testing.TB, jobs, gpus int, horizon float64, seed int64) *core.Instance {
	t.Helper()
	cl := cluster.Heterogeneous(cluster.HighHeterogeneity, gpus)
	specs := workload.Generate(workload.Options{
		NumJobs:     jobs,
		Arrivals:    trace.Arrivals(jobs, horizon, seed+1),
		BatchScale:  1,
		RoundsScale: 0.1,
		MaxSync:     cl.Size(),
		Seed:        seed + 2,
	})
	in, _, err := workload.BuildInstance(specs, cl, seed+3)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestGoldenSeed42Placements pins every scheme's plan on the seed-42
// workload (sim's goldenWorkload: 40 jobs, 24 GPUs, horizon 300). Hare
// and Hare-online were recorded at commit 963f92f, before the
// incremental planner and the dense fluid solver; the other nine at
// 3c58bf9, before the four job-level baselines became one gang loop.
func TestGoldenSeed42Placements(t *testing.T) {
	in := generatedInstance(t, 40, 24, 300, 42)
	for _, c := range []struct {
		algo Algorithm
		want uint64
	}{
		{NewHare(), 0x37cf619e614612ff},
		{NewGavelFIFO(), 0xb39076416f7c5d1b},
		{NewSRTF(), 0x84634370fff841af},
		{NewSchedHomo(), 0xd74c3a81513c8bdf},
		{NewSchedAllox(), 0xe2bfecfaa7b418b},
		{NewGandivaRR(), 0xf60f8e00c592232a},
		{NewTiresiasLAS(), 0xe7083c8fba31b0ad},
		{NewThemisFair(), 0xf72df58cec4f3ee},
		{NewOnlineHare(), 0x8b9b31c9d186b4f},
		{NewHareEA(), 0xf582909141551b88},
		{NewHareStrict(), 0x927926ba50f10939},
	} {
		s, err := c.algo.Schedule(in)
		if err != nil {
			t.Fatalf("%s: %v", c.algo.Name(), err)
		}
		if got := placementHash(in, s); got != c.want {
			t.Errorf("%s: placement hash %#x, golden %#x", c.algo.Name(), got, c.want)
		}
	}
}

// TestGoldenSeed42Decisions pins Hare's and Hare-EA's decision events on
// the seed-42 workload of TestGoldenSeed42Placements, recorded at
// a82bac6 while offline Hare still sorted π on its own.
func TestGoldenSeed42Decisions(t *testing.T) {
	in := generatedInstance(t, 40, 24, 300, 42)
	for _, c := range []struct {
		algo *Hare
		want uint64
	}{
		{NewHare(), 0xd095beecd5771da1},
		{NewHareEA(), 0xb74e755293859bba},
	} {
		sink := obs.NewCollectSink()
		c.algo.SetRecorder(obs.NewRecorder(sink))
		if _, err := c.algo.Schedule(in); err != nil {
			t.Fatalf("%s: %v", c.algo.Name(), err)
		}
		h := fnv.New64a()
		for _, e := range sink.Events() {
			fmt.Fprintf(h, "%d|%.17g|%d|%d|%d|%d|%.17g|%s\n", e.Type, e.Time, e.GPU, e.Job, e.Round, e.Index, e.H, e.Note)
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: decision hash %#x over %d events, golden %#x", c.algo.Name(), got, len(sink.Events()), c.want)
		}
	}
}

// TestGangBaselinesGoldenRandom folds each job-level gang baseline's
// placements over 1200 random instances into one hash, recorded at
// 3c58bf9 when each baseline was its own program.
func TestGangBaselinesGoldenRandom(t *testing.T) {
	for _, c := range []struct {
		algo Algorithm
		want uint64
	}{
		{NewGavelFIFO(), 0xc432bdecb641ab34},
		{NewSRTF(), 0xced18e38bbd07fcb},
		{NewSchedHomo(), 0xd55888ddf02ebf49},
		{NewThemisFair(), 0x673b9e9c552af8c7},
	} {
		if got := foldedPlacementHash(t, c.algo, 1200); got != c.want {
			t.Errorf("%s: folded placement hash %#x, golden %#x", c.algo.Name(), got, c.want)
		}
	}
}

// TestHareFamilyGoldenRandom folds Hare's, Hare-EA's, Hare-strict's and
// Hare-online's placements over the same 1200 random instances, recorded
// at c6aac37 while Hare still sorted π task by task. The tie-heavy third
// of the draws is where jobs share H, so a change of π's tie-break shows
// here first.
func TestHareFamilyGoldenRandom(t *testing.T) {
	for _, c := range []struct {
		algo Algorithm
		want uint64
	}{
		{NewHare(), 0xbf5c9144166efa5c},
		{NewHareEA(), 0x227cdecda23368c2},
		{NewHareStrict(), 0xba0812144e847407},
		{NewOnlineHare(), 0xc29676381c7813cb},
	} {
		if got := foldedPlacementHash(t, c.algo, 1200); got != c.want {
			t.Errorf("%s: folded placement hash %#x, golden %#x", c.algo.Name(), got, c.want)
		}
	}
}

// foldedPlacementHash folds algo's placement hashes over n random
// instances into one. Every third instance is tie-heavy (shared arrival
// epochs, integer train times, sync 1), so the tie-breaks and the 1e-9
// event tolerances are exercised.
func foldedPlacementHash(t *testing.T, algo Algorithm, n int) uint64 {
	t.Helper()
	rng := stats.New(20261003)
	h := fnv.New64a()
	for trial := 0; trial < n; trial++ {
		in := randomInstance(rng.Split(), 12, 8)
		if trial%3 == 2 {
			reshape(in, 1)
			for j := range in.Train {
				for m := range in.Train[j] {
					in.Train[j][m], in.Sync[j][m] = math.Floor(in.Train[j][m]), 1
				}
			}
		}
		s, err := algo.Schedule(in)
		if err != nil {
			t.Fatalf("%s trial %d: %v", algo.Name(), trial, err)
		}
		fmt.Fprintf(h, "%x\n", placementHash(in, s))
	}
	return h.Sum64()
}

// TestSaveScheduleGoldenSeed42 pins the plan file format: the bytes
// core.SaveSchedule writes for Hare's seed-42 plan, recorded at c6aac37.
func TestSaveScheduleGoldenSeed42(t *testing.T) {
	in := generatedInstance(t, 40, 24, 300, 42)
	s, err := NewHare().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := core.SaveSchedule(s, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(data)
	if got, want := h.Sum64(), uint64(0x2bdd7bbb692fcdb5); got != want {
		t.Errorf("saved plan hash %#x (%d bytes), golden %#x", got, len(data), want)
	}
}
