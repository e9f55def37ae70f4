package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/faults"
	"hare/internal/model"
	"hare/internal/obs"
	"hare/internal/sched"
	"hare/internal/sim"
	"hare/internal/switching"
)

var update = flag.Bool("update", false, "rewrite golden files")

// scenario runs a deterministic 2-GPU, 2-job plan through Hare and the
// simulator with full instrumentation, returning the captured events
// and the simulator's trace. fp, when set, injects its faults.
func scenario(t *testing.T, fp *faults.Plan) ([]obs.Event, *sim.Result) {
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

	collect := obs.NewCollectSink()
	rec := obs.NewRecorder(collect)
	algo := sched.NewHare()
	algo.SetRecorder(rec)
	plan, err := algo.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(in, plan, cl, models, sim.Options{
		Scheme: switching.Hare, Speculative: true,
		Faults:   fp,
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return collect.Events(), res
}

// chromeFile mirrors the exporter's JSON shape for decoding.
type chromeFile struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func renderChrome(t *testing.T, events []obs.Event) ([]byte, chromeFile) {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteChromeTraceSpans(&buf, events, nil); err != nil {
		t.Fatal(err)
	}
	var cf chromeFile
	if err := json.Unmarshal(buf.Bytes(), &cf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return buf.Bytes(), cf
}

func TestChromeTraceGolden(t *testing.T) {
	events, _ := scenario(t, nil)
	got, cf := renderChrome(t, events)
	if len(cf.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}

	golden := filepath.Join("testdata", "chrometrace.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/obs -run ChromeTraceGolden -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("chrome trace drifted from golden file (len %d vs %d); if intended, rerun with -update", len(got), len(want))
	}
}

func TestChromeTraceLanesMonotone(t *testing.T) {
	events, _ := scenario(t, &faults.Plan{Rate: 0.3, Seed: 1})
	_, cf := renderChrome(t, events)

	type lane struct{ pid, tid int }
	lastTs := map[lane]float64{}       // every event: ts monotone per lane
	lastTrainEnd := map[lane]float64{} // train slices: device-serial
	spans := 0
	for _, e := range cf.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		l := lane{e.Pid, e.Tid}
		if e.Ts+1e-6 < lastTs[l] {
			t.Errorf("lane %v: %q at ts %g after ts %g", l, e.Name, e.Ts, lastTs[l])
		}
		lastTs[l] = e.Ts
		if e.Ph != "X" {
			continue
		}
		spans++
		if e.Dur < 0 {
			t.Errorf("negative dur %g on %q", e.Dur, e.Name)
		}
		if l.pid != obs.ChromePidExecution {
			t.Errorf("X span on unexpected process %d", l.pid)
		}
		if l.tid != 0 && l.tid != 1 {
			t.Errorf("X span on unexpected GPU lane %d", l.tid)
		}
		// Training occupies the device serially; sync/wait spans may
		// overlap it (communication runs in the background), but two
		// train slices on one GPU must never overlap.
		if e.Cat == "train" {
			if e.Ts+1e-6 < lastTrainEnd[l] {
				t.Errorf("lane %v: train %q starts at %g before previous train end %g", l, e.Name, e.Ts, lastTrainEnd[l])
			}
			lastTrainEnd[l] = e.Ts + e.Dur
		}
	}
	if spans == 0 {
		t.Fatal("no complete events exported")
	}
}

// TestChromeTracePidTidStableAcrossSeeds checks that lane identity is a
// function of the fleet and jobs, not of the run's randomness: traces
// whose transient faults come from different seeds land on identical
// (pid, tid) sets, so repeated captures line up in the viewer.
func TestChromeTracePidTidStableAcrossSeeds(t *testing.T) {
	retries := map[int]bool{}
	laneSet := func(seed int64) []string {
		events, res := scenario(t, &faults.Plan{Rate: 0.3, Seed: seed})
		retries[res.Retries] = true
		_, cf := renderChrome(t, events)
		set := map[string]bool{}
		for _, e := range cf.TraceEvents {
			if e.Ph == "M" {
				continue
			}
			set[string(rune('0'+e.Pid))+"/"+string(rune('0'+e.Tid))] = true
		}
		var out []string
		for k := range set {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	base := laneSet(1)
	if len(base) == 0 {
		t.Fatal("no lanes")
	}
	for _, seed := range []int64{2, 3} {
		got := laneSet(seed)
		if len(got) != len(base) {
			t.Fatalf("seed %d: %d lanes vs %d at seed 1: %v vs %v", seed, len(got), len(base), got, base)
		}
		for i := range base {
			if got[i] != base[i] {
				t.Errorf("seed %d: lane %d is %s, want %s", seed, i, got[i], base[i])
			}
		}
	}
	if len(retries) < 2 {
		t.Fatalf("every seed lost the same number of attempts (%v); the runs did not vary", retries)
	}
}

// TestChromeTraceMatchesGantt checks the acceptance criterion that the
// per-GPU "train" slices reproduce exactly the intervals metrics.Gantt
// draws — i.e. the [Start, Start+Train] of every trace record.
func TestChromeTraceMatchesGantt(t *testing.T) {
	events, res := scenario(t, nil)
	_, cf := renderChrome(t, events)

	type iv struct{ start, end float64 }
	perGPU := map[int][]iv{}
	for _, e := range cf.TraceEvents {
		if e.Ph == "X" && e.Cat == "train" {
			perGPU[e.Tid] = append(perGPU[e.Tid], iv{e.Ts / 1e6, (e.Ts + e.Dur) / 1e6})
		}
	}
	wantPerGPU := map[int][]iv{}
	for _, r := range res.Trace.Records {
		wantPerGPU[r.GPU] = append(wantPerGPU[r.GPU], iv{r.Start, r.Start + r.Train})
	}
	if len(perGPU) != len(wantPerGPU) {
		t.Fatalf("trace covers %d GPUs, records cover %d", len(perGPU), len(wantPerGPU))
	}
	//lint:ordered independent per-GPU assertions
	for gpu, want := range wantPerGPU {
		got := perGPU[gpu]
		sort.Slice(got, func(i, j int) bool { return got[i].start < got[j].start })
		sort.Slice(want, func(i, j int) bool { return want[i].start < want[j].start })
		if len(got) != len(want) {
			t.Fatalf("gpu %d: %d train slices, want %d", gpu, len(got), len(want))
		}
		for i := range want {
			if math.Abs(got[i].start-want[i].start) > 1e-9 || math.Abs(got[i].end-want[i].end) > 1e-9 {
				t.Errorf("gpu %d slice %d: [%g, %g], want [%g, %g]",
					gpu, i, got[i].start, got[i].end, want[i].start, want[i].end)
			}
		}
	}
}
