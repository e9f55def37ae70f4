package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Chrome trace-event exporter: converts an event stream into the JSON
// Array Format that chrome://tracing and https://ui.perfetto.dev load.
// Lanes are keyed by GPU — process "execution" has one thread per
// device, so a run reads like a Gantt chart with exact timestamps;
// scheduler decisions and job lifecycle land in their own processes so
// they can be toggled independently in the viewer.

// Process IDs of the exported lanes. They are stable across runs and
// seeds: execution threads are GPU IDs, job threads are job IDs.
const (
	ChromePidExecution = 0 // task/sync/switch/wait/mem spans, tid = GPU
	ChromePidScheduler = 1 // Algorithm 1 decisions, tid = chosen GPU
	ChromePidJobs      = 2 // submit/complete instants, tid = job
	ChromePidSpans     = 3 // nested causal spans, tid = job
	ChromePidControl   = 4 // control-plane RPC/lease/WAL lanes, tid = GPU (-1 = coordinator)
)

// chromeEvent is one entry of the trace-event JSON array.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`  // instant scope
	ID   int            `json:"id,omitempty"` // flow-event binding id
	Bp   string         `json:"bp,omitempty"` // flow binding point
	Args map[string]any `json:"args,omitempty"`
}

// ChromeSpan is one pre-laid-out slice for the "spans" process of the
// trace (pid ChromePidSpans). Callers — e.g. internal/obs/span, which
// this package must not import — flatten their span trees into these:
// parents must precede children so equal-timestamp slices nest
// correctly in the viewer.
type ChromeSpan struct {
	Name  string
	Cat   string
	Tid   int // lane within the spans process (job ID)
	Start float64
	End   float64
	Args  map[string]any
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

const usec = 1e6 // seconds → trace-event microseconds

// WriteChromeTraceSpans renders events as trace-event JSON, plus an
// optional nested causal-span process (pid ChromePidSpans, one lane per
// job). Events are emitted in ascending-ts order (stable within equal
// timestamps), so every lane's timeline is monotone. EvTaskStart events
// are skipped — the matching EvTaskFinish carries the whole span. A
// preempted job's switch-out and its next switch-in are connected by
// flow events, so the viewer draws an arrow from where a job lost its
// GPU to where it resumed (possibly on another device).
func WriteChromeTraceSpans(w io.Writer, events []Event, spans []ChromeSpan) error {
	var out []chromeEvent
	type lane struct{ pid, tid int }
	lanes := make(map[lane]bool)
	touch := func(pid, tid int) {
		lanes[lane{pid, tid}] = true
	}

	var switchEvs []Event
	for _, e := range events {
		switch e.Type {
		case EvTaskStart:
			continue
		case EvTaskFinish:
			start := e.Time - e.Train - e.Sync
			touch(ChromePidExecution, e.GPU)
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("j%d r%d.%d", e.Job, e.Round, e.Index),
				Cat:  "train", Ph: "X",
				Ts: start * usec, Dur: e.Train * usec,
				Pid: ChromePidExecution, Tid: e.GPU,
				Args: map[string]any{"job": e.Job, "round": e.Round, "index": e.Index, "model": e.Note},
			})
			if e.Sync > 0 {
				out = append(out, chromeEvent{
					Name: fmt.Sprintf("sync j%d r%d", e.Job, e.Round),
					Cat:  "sync", Ph: "X",
					Ts: (start + e.Train) * usec, Dur: e.Sync * usec,
					Pid: ChromePidExecution, Tid: e.GPU,
				})
			}
		case EvJobSwitch:
			touch(ChromePidExecution, e.GPU)
			switchEvs = append(switchEvs, e)
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("switch j%d>j%d", e.From, e.Job),
				Cat:  "switch", Ph: "X",
				Ts: e.Time * usec, Dur: e.Dur * usec,
				Pid: ChromePidExecution, Tid: e.GPU,
				Args: map[string]any{
					"clean": e.Clean, "context": e.Context, "init": e.Init,
					"transfer": e.Transfer, "residency_hit": e.Hit,
				},
			})
		case EvBarrierWait:
			touch(ChromePidExecution, e.GPU)
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("wait %s j%d r%d", e.Note, e.Job, e.Round),
				Cat:  "wait", Ph: "X",
				Ts: e.Time * usec, Dur: e.Dur * usec,
				Pid: ChromePidExecution, Tid: e.GPU,
			})
		case EvMemAdmit, EvMemEvict, EvMemHit:
			touch(ChromePidExecution, e.GPU)
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("%s j%d", e.Type, e.Job),
				Cat:  "mem", Ph: "i",
				Ts:  e.Time * usec,
				Pid: ChromePidExecution, Tid: e.GPU, S: "t",
				Args: map[string]any{"bytes": e.Bytes},
			})
		case EvSchedDecision:
			touch(ChromePidScheduler, e.GPU)
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("place j%d r%d.%d", e.Job, e.Round, e.Index),
				Cat:  "sched", Ph: "i",
				Ts:  e.Time * usec,
				Pid: ChromePidScheduler, Tid: e.GPU, S: "t",
				Args: map[string]any{"H": e.H, "gpu": e.GPU},
			})
		case EvFaultInjected, EvGPUFailed, EvTaskMigrated, EvReschedule:
			touch(ChromePidExecution, e.GPU)
			name := fmt.Sprintf("%s j%d r%d.%d", e.Type, e.Job, e.Round, e.Index)
			if e.Type == EvGPUFailed || e.Type == EvReschedule {
				name = fmt.Sprintf("%s gpu%d", e.Type, e.GPU)
			}
			out = append(out, chromeEvent{
				Name: name,
				Cat:  "fault", Ph: "i",
				Ts:  e.Time * usec,
				Pid: ChromePidExecution, Tid: e.GPU, S: "t",
				Args: map[string]any{"note": e.Note, "from": e.From},
			})
		case EvJobSubmit, EvJobComplete:
			touch(ChromePidJobs, e.Job)
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("%s j%d", e.Type, e.Job),
				Cat:  "job", Ph: "i",
				Ts:  e.Time * usec,
				Pid: ChromePidJobs, Tid: e.Job, S: "p",
				Args: map[string]any{"note": e.Note},
			})
		case EvRPCClient, EvRPCServer:
			// Both ends of one call land on the same GPU lane of the
			// control-plane process; the coordinator's handler slice
			// nests inside the executor's call slice (same clock, so
			// the uncovered margins read directly as wire time).
			touch(ChromePidControl, e.GPU)
			cat, name := "rpc-server", e.Note
			if e.Type == EvRPCClient {
				cat, name = "rpc-client", e.Note+" call"
			}
			out = append(out, chromeEvent{
				Name: name, Cat: cat, Ph: "X",
				Ts: e.Time * usec, Dur: e.Dur * usec,
				Pid: ChromePidControl, Tid: e.GPU,
				Args: map[string]any{"call": e.Call, "epoch": e.Epoch, "lsn": e.LSN, "seq": e.Seq},
			})
		case EvLeaseRenew, EvLeaseExpired:
			touch(ChromePidControl, e.GPU)
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("%s gpu%d", e.Type, e.GPU),
				Cat:  "lease", Ph: "i",
				Ts:  e.Time * usec,
				Pid: ChromePidControl, Tid: e.GPU, S: "t",
				Args: map[string]any{"age": e.Dur, "note": e.Note},
			})
		case EvNetFault:
			touch(ChromePidControl, e.GPU)
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("net.fault %s", e.Note),
				Cat:  "chaos", Ph: "i",
				Ts:  e.Time * usec,
				Pid: ChromePidControl, Tid: e.GPU, S: "t",
				Args: map[string]any{"note": e.Note, "delay": e.Dur},
			})
		case EvWALAppend, EvWALSnapshot, EvRecoveryReplay, EvCoordRecovered:
			// The journal reads as one strip on the coordinator lane.
			touch(ChromePidControl, -1)
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("%s lsn=%d", e.Type, e.LSN),
				Cat:  "wal", Ph: "i",
				Ts:  e.Time * usec,
				Pid: ChromePidControl, Tid: -1, S: "t",
				Args: map[string]any{"lsn": e.LSN, "kind": e.Note, "gpu": e.GPU, "bytes": e.Bytes},
			})
		}
	}

	// Flow arrows from each preemption to the resumption it caused: a
	// switch to job B on a GPU running job A is A's switch-out; A's
	// next switch-in (on any device) is where it resumed. The "s" end
	// lands on the evicting switch slice, the "f" end (binding point
	// "e": enclosing slice) on the resuming one. Pairing walks the
	// switches in global time order so out/in alternate per job.
	sort.SliceStable(switchEvs, func(i, j int) bool {
		if switchEvs[i].Time != switchEvs[j].Time { //lint:allow floateq stable-sort tie-break
			return switchEvs[i].Time < switchEvs[j].Time
		}
		return switchEvs[i].GPU < switchEvs[j].GPU
	})
	flowID := 0
	lastOut := make(map[int]Event) // job → switch event that evicted it
	for _, e := range switchEvs {
		if prev, ok := lastOut[e.Job]; ok {
			flowID++
			name := fmt.Sprintf("preempt j%d", e.Job)
			out = append(out,
				chromeEvent{
					Name: name, Cat: "preempt", Ph: "s",
					Ts:  prev.Time * usec,
					Pid: ChromePidExecution, Tid: prev.GPU, ID: flowID,
				},
				chromeEvent{
					Name: name, Cat: "preempt", Ph: "f", Bp: "e",
					Ts:  e.Time * usec,
					Pid: ChromePidExecution, Tid: e.GPU, ID: flowID,
				})
			delete(lastOut, e.Job)
		}
		if e.From >= 0 {
			lastOut[e.From] = e
		}
	}

	for _, s := range spans {
		touch(ChromePidSpans, s.Tid)
		out = append(out, chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			Ts: s.Start * usec, Dur: (s.End - s.Start) * usec,
			Pid: ChromePidSpans, Tid: s.Tid, Args: s.Args,
		})
	}

	sort.SliceStable(out, func(i, j int) bool { return out[i].Ts < out[j].Ts })

	// Lane metadata first: process and thread names make the viewer
	// read "GPU 3" instead of "tid 3".
	meta := []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: ChromePidExecution, Args: map[string]any{"name": "execution"}},
		{Name: "process_name", Ph: "M", Pid: ChromePidScheduler, Args: map[string]any{"name": "scheduler"}},
		{Name: "process_name", Ph: "M", Pid: ChromePidJobs, Args: map[string]any{"name": "jobs"}},
	}
	if len(spans) > 0 {
		meta = append(meta, chromeEvent{
			Name: "process_name", Ph: "M", Pid: ChromePidSpans,
			Args: map[string]any{"name": "spans"},
		})
	}
	var laneList []lane
	control := false
	//lint:ordered collected lanes are sorted by (pid, tid) just below
	for l := range lanes {
		laneList = append(laneList, l)
		if l.pid == ChromePidControl {
			control = true
		}
	}
	if control {
		meta = append(meta, chromeEvent{
			Name: "process_name", Ph: "M", Pid: ChromePidControl,
			Args: map[string]any{"name": "control-plane"},
		})
	}
	sort.Slice(laneList, func(i, j int) bool {
		if laneList[i].pid != laneList[j].pid {
			return laneList[i].pid < laneList[j].pid
		}
		return laneList[i].tid < laneList[j].tid
	})
	for _, l := range laneList {
		name := fmt.Sprintf("GPU %d", l.tid)
		if l.pid == ChromePidJobs || l.pid == ChromePidSpans {
			name = fmt.Sprintf("job %d", l.tid)
		}
		if l.pid == ChromePidControl && l.tid < 0 {
			name = "coordinator"
		}
		meta = append(meta, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: l.pid, Tid: l.tid,
			Args: map[string]any{"name": name},
		})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeTrace{TraceEvents: append(meta, out...), DisplayTimeUnit: "ms"})
}

// SaveChromeTraceSpans writes the trace-event JSON to path with an
// extra "spans" process rendering the given causal span slices (see
// internal/obs/span.ChromeSpans).
func SaveChromeTraceSpans(path string, events []Event, spans []ChromeSpan) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: create %s: %w", path, err)
	}
	if err := WriteChromeTraceSpans(f, events, spans); err != nil {
		f.Close()
		return fmt.Errorf("obs: write chrome trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs: close %s: %w", path, err)
	}
	return nil
}
