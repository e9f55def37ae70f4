// Package obs is the runtime observability layer: a low-overhead
// structured event bus plus a counters/gauges/histograms registry.
// Final numbers (weighted JCT, makespan, utilization) live in
// internal/metrics; obs records *how* a run unfolded — why Algorithm 1
// ordered tasks the way it did, when round barriers stalled a GPU,
// which switches the speculative memory manager turned into residency
// hits — so that scheduling policies can be debugged and tuned the way
// Gavel-style systems do, from per-decision traces.
//
// Everything is nil-safe: a nil *Recorder, *Registry, *Counter, *Gauge
// or *Histogram is a valid no-op, so uninstrumented runs pay nothing.
// Hot paths additionally guard emission with Recorder.Enabled() (or a
// plain nil check) so event structs are not even built when nobody
// listens; BenchmarkObsDisabled verifies that the nil-recorder
// simulator path stays within noise of the uninstrumented baseline.
package obs

import (
	"fmt"
	"sync"
)

// Type enumerates the event taxonomy. The events mirror the paper's
// moving parts: tasks and round barriers (§3's relaxed scale-fixed
// synchronization), inter-job switches with their stall breakdown
// (§4's fast task switching), speculative memory traffic (§5), and
// the scheduler's per-task decisions (Algorithm 1).
//
// A Type is written to JSONL as its number, so a deleted type retires
// its number rather than renumbering the ones after it: a stream
// recorded by an older build decodes to the same types, or fails on
// the retired number (ReadJSONL).
type Type uint8

const (
	// EvTaskStart marks training start of a task on a GPU.
	EvTaskStart Type = iota
	// EvTaskFinish marks task completion (training + synchronization);
	// Train and Sync carry the realized component times and Dur their
	// sum, so Time-Dur recovers the start.
	EvTaskFinish
	// EvBarrierWait records GPU idleness before a task could start:
	// Dur seconds spent waiting on the previous round's barrier (Note
	// "round") or on the job's arrival (Note "arrival").
	EvBarrierWait
	// EvJobSwitch is one inter-job switch: GPU moved from job From to
	// job Job, stalling Dur seconds, itemized into Clean / Context /
	// Init / Transfer (see switching.Breakdown). Hit marks a
	// speculative-residency hit that skipped the transfer.
	EvJobSwitch
	// EvMemAdmit records the speculative manager keeping a model's
	// weights (Bytes) resident after a task completed.
	EvMemAdmit
	_ // 5: retired (mem-evict)
	// EvMemHit records a task finding its weights already resident.
	EvMemHit
	// EvSchedDecision is one Algorithm 1 placement: the scheduler chose
	// GPU for the task, whose relaxation middle-completion-time H
	// ordered it; Time is the planned start.
	EvSchedDecision
	_ // 8: retired (job-submit)
	// EvJobComplete marks a job's realized completion.
	EvJobComplete
	// EvFaultInjected records a transient task fault: the training
	// attempt on GPU was lost and the task retries from the round
	// checkpoint. Dur carries the wasted attempt seconds.
	EvFaultInjected
	// EvGPUFailed records a detected permanent GPU failure (device
	// fault, executor crash, or expired heartbeat lease). Note carries
	// the detection reason.
	EvGPUFailed
	// EvTaskMigrated records one stranded task moving to a surviving
	// GPU: the task was planned (or in flight) on failed GPU From and
	// is now assigned to GPU.
	EvTaskMigrated
	// EvReschedule records a recovery pass: Algorithm 1 re-ran on the
	// residual instance after GPU failed. Dur is unused; Note carries
	// "tasks=N gpus=M" for the residual size.
	EvReschedule
	// EvNetFault records one injected network fault on the
	// executor↔coordinator path (chaos transport): Note carries the
	// kind (drop-request, drop-reply, dup, reorder, delay, partition),
	// GPU the executor side, Dur any injected latency in seconds.
	EvNetFault
	// EvCoordRecovered records a coordinator restart from its
	// write-ahead log: Time is the restored simulated watermark and
	// Note carries "epoch=E pushes=N fenced=M" for the recovered state.
	EvCoordRecovered
	// EvRPCClient records one executor-side RPC: Note carries the
	// method, Call the trace-context call id, Dur the call's duration
	// in simulated seconds (wire time included), GPU the calling
	// executor and Epoch the coordinator incarnation it targeted.
	EvRPCClient
	// EvRPCServer records the coordinator-side handling of the same
	// call: matched to EvRPCClient by (GPU, Call), with LSN the journal
	// watermark after the handler ran. The client/server duration gap
	// is the wire (plus chaos-injected) time.
	EvRPCServer
	// EvLeaseRenew records a heartbeat renewing a GPU's lease; Dur is
	// the simulated age of the previous lease at renewal.
	EvLeaseRenew
	// EvLeaseExpired records the lease monitor fencing a GPU: Dur is
	// how long the lease had been silent (simulated seconds) and Note
	// the expiry detail, mirrored by the gpu.failed event that follows.
	EvLeaseExpired
	// EvWALAppend records one durable journal append: LSN the record's
	// log sequence number, Note the record kind (push/fence/report).
	EvWALAppend
	// EvWALSnapshot records a journal snapshot: LSN the watermark it
	// folds in, Bytes the encoded snapshot size.
	EvWALSnapshot
	// EvRecoveryReplay records the WAL replay phase of a recovery:
	// LSN the replay high-water mark, Note "snap=L replayed=N" for the
	// snapshot cut point and the number of records re-applied.
	EvRecoveryReplay
)

// typeNames are the String forms, indexed by Type; a retired number
// has none.
var typeNames = [...]string{
	EvTaskStart:      "task-start",
	EvTaskFinish:     "task-finish",
	EvBarrierWait:    "barrier-wait",
	EvJobSwitch:      "job-switch",
	EvMemAdmit:       "mem-admit",
	EvMemHit:         "mem-hit",
	EvSchedDecision:  "sched-decision",
	EvJobComplete:    "job-complete",
	EvFaultInjected:  "fault.injected",
	EvGPUFailed:      "gpu.failed",
	EvTaskMigrated:   "task.migrated",
	EvReschedule:     "resched.triggered",
	EvNetFault:       "net.fault",
	EvCoordRecovered: "coord.recovered",
	EvRPCClient:      "rpc.client",
	EvRPCServer:      "rpc.server",
	EvLeaseRenew:     "lease.renew",
	EvLeaseExpired:   "lease.expired",
	EvWALAppend:      "wal.append",
	EvWALSnapshot:    "wal.snapshot",
	EvRecoveryReplay: "recovery.replay",
}

func (t Type) String() string {
	if t.known() {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// known reports whether t is a current event type.
func (t Type) known() bool { return int(t) < len(typeNames) && typeNames[t] != "" }

// TypeByName resolves an event type from its String form.
func TypeByName(name string) (Type, error) {
	for t, n := range typeNames {
		if n != "" && n == name {
			return Type(t), nil
		}
	}
	return 0, fmt.Errorf("obs: unknown event type %q", name)
}

// Event is one structured record. It is a flat value type — no
// pointers, no allocation on emit — with type-specific fields left
// zero when they do not apply. GPU, Job and From use -1 for "not
// applicable".
type Event struct {
	Type Type    `json:"type"`
	Time float64 `json:"time"` // seconds on the run's clock
	GPU  int     `json:"gpu"`  // device lane, -1 when not GPU-scoped
	Job  int     `json:"job"`  // job ID, -1 when not job-scoped
	// Round and Index locate the task within its job.
	Round int `json:"round,omitempty"`
	Index int `json:"index,omitempty"`
	// Dur is the span length in seconds (task, wait, or stall).
	Dur float64 `json:"dur,omitempty"`
	// From is the predecessor job of a switch (-1 = cold start).
	From int `json:"from,omitempty"`
	// Train / Sync split a task-finish duration into its components.
	Train float64 `json:"train,omitempty"`
	Sync  float64 `json:"sync,omitempty"`
	// Clean / Context / Init / Transfer itemize a switch stall.
	Clean    float64 `json:"clean,omitempty"`
	Context  float64 `json:"context,omitempty"`
	Init     float64 `json:"init,omitempty"`
	Transfer float64 `json:"transfer,omitempty"`
	// H is the relaxation's middle completion time behind a scheduler
	// decision (Algorithm 1's sort key).
	H float64 `json:"h,omitempty"`
	// Bytes sizes memory traffic (admit/hit) and journal snapshots.
	Bytes int64 `json:"bytes,omitempty"`
	// Hit marks a speculative residency hit.
	Hit bool `json:"hit,omitempty"`
	// Note is a short human label (model name, wait reason, scheme).
	Note string `json:"note,omitempty"`
	// Trace context (distributed control plane). Seq is the emitting
	// process's monotonic event sequence (stamped by a seq recorder,
	// see NewSeqRecorder); Call identifies one RPC across both ends;
	// Epoch is the coordinator incarnation; LSN the journal watermark.
	// Together (LSN, Seq) give cross-process merges a deterministic
	// tie-break.
	Seq   uint64 `json:"seq,omitempty"`
	Call  uint64 `json:"call,omitempty"`
	Epoch uint64 `json:"epoch,omitempty"`
	LSN   uint64 `json:"lsn,omitempty"`
}

// Format renders the event as one compact human-readable line, the
// form `harectl tail` and the JSONL tooling print.
func (e Event) Format() string {
	loc := ""
	switch {
	case e.GPU >= 0 && e.Job >= 0:
		loc = fmt.Sprintf(" gpu%d j%d/r%d.%d", e.GPU, e.Job, e.Round, e.Index)
	case e.GPU >= 0:
		loc = fmt.Sprintf(" gpu%d", e.GPU)
	case e.Job >= 0:
		loc = fmt.Sprintf(" j%d", e.Job)
	}
	detail := ""
	switch e.Type {
	case EvTaskFinish:
		detail = fmt.Sprintf(" train=%.3fs sync=%.3fs", e.Train, e.Sync)
	case EvBarrierWait:
		detail = fmt.Sprintf(" wait=%.3fs (%s)", e.Dur, e.Note)
	case EvJobSwitch:
		detail = fmt.Sprintf(" from=j%d stall=%.4fs", e.From, e.Dur)
		if e.Hit {
			detail += " (residency hit)"
		}
	case EvMemAdmit, EvMemHit:
		detail = fmt.Sprintf(" %dB", e.Bytes)
	case EvSchedDecision:
		detail = fmt.Sprintf(" H=%.2f", e.H)
	case EvFaultInjected:
		detail = fmt.Sprintf(" lost=%.3fs", e.Dur)
	case EvGPUFailed:
		detail = fmt.Sprintf(" (%s)", e.Note)
	case EvTaskMigrated:
		detail = fmt.Sprintf(" from=gpu%d", e.From)
	case EvNetFault:
		detail = fmt.Sprintf(" (%s)", e.Note)
	case EvCoordRecovered:
		detail = fmt.Sprintf(" (%s)", e.Note)
	case EvRPCClient, EvRPCServer:
		detail = fmt.Sprintf(" %s call=%d epoch=%d dur=%.4fs", e.Note, e.Call, e.Epoch, e.Dur)
		if e.LSN > 0 {
			detail += fmt.Sprintf(" lsn=%d", e.LSN)
		}
	case EvLeaseRenew:
		detail = fmt.Sprintf(" age=%.3fs", e.Dur)
	case EvLeaseExpired:
		detail = fmt.Sprintf(" silent=%.3fs (%s)", e.Dur, e.Note)
	case EvWALAppend:
		detail = fmt.Sprintf(" lsn=%d kind=%s", e.LSN, e.Note)
	case EvWALSnapshot:
		detail = fmt.Sprintf(" lsn=%d %dB", e.LSN, e.Bytes)
	case EvRecoveryReplay:
		detail = fmt.Sprintf(" lsn=%d (%s)", e.LSN, e.Note)
	}
	note := ""
	switch e.Type {
	case EvBarrierWait, EvGPUFailed, EvRPCClient, EvRPCServer,
		EvLeaseExpired, EvWALAppend, EvRecoveryReplay:
		// detail already renders the note
	default:
		if e.Note != "" {
			note = " " + e.Note
		}
	}
	return fmt.Sprintf("%12.3f %-14s%s%s%s", e.Time, e.Type, loc, detail, note)
}

// Sink consumes emitted events. Implementations must be safe for
// concurrent Record calls — executors emit from one goroutine per GPU.
type Sink interface {
	Record(e Event)
}

// Recorder fans events out to its sinks. The zero value and nil are
// both valid no-ops; construct with NewRecorder to attach sinks.
//
// The sink slice is fixed at construction, so a plain recorder's Emit
// takes no lock of its own — concurrency control lives in the sinks,
// keeping the fan-out path a plain loop. A sequencing recorder
// (NewSeqRecorder) serializes Emit instead: see seqState.
type Recorder struct {
	sinks []Sink
	// seq, when non-nil, stamps each emitted event with this process's
	// monotonic sequence number (see NewSeqRecorder).
	seq *seqState
}

// seqState is a sequencing recorder's counter. Its mutex is held from
// the stamp to the end of the fan-out, so every sink records events in
// stamp order; a bare atomic counter let two concurrent emitters reach
// a sink in the opposite order to their stamps. A sink must therefore
// not emit into the recorder that is calling it.
type seqState struct {
	mu sync.Mutex
	n  uint64
}

// NewRecorder builds a recorder over the given sinks (nil sinks are
// dropped). With no sinks it still accepts events, discarding them.
func NewRecorder(sinks ...Sink) *Recorder {
	r := &Recorder{}
	for _, s := range sinks {
		if s != nil {
			r.sinks = append(r.sinks, s)
		}
	}
	return r
}

// NewSeqRecorder is NewRecorder plus trace-context sequencing: every
// emitted event whose Seq is still zero is stamped with a per-recorder
// monotonic counter, giving one process's stream a total order that
// survives the round-trip through JSONL and lets cross-process merges
// tie-break deterministically on (LSN, Seq). Every sink sees the stream
// in Seq order, whatever goroutines emit.
func NewSeqRecorder(sinks ...Sink) *Recorder {
	r := NewRecorder(sinks...)
	r.seq = new(seqState)
	return r
}

// Sinks returns the recorder's sink slice (nil-safe, read-only): used
// by harnesses that fan one process's events into an extra per-process
// stream without disturbing the original wiring.
func (r *Recorder) Sinks() []Sink {
	if r == nil {
		return nil
	}
	return r.sinks
}

// Enabled reports whether emitting can have any effect. Hot paths
// check it (or compare the recorder against nil) before building an
// Event, so the disabled path costs one predictable branch.
func (r *Recorder) Enabled() bool { return r != nil && len(r.sinks) > 0 }

// Emit records an event into every sink. Safe on a nil receiver.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	if r.seq != nil {
		r.seq.mu.Lock()
		defer r.seq.mu.Unlock()
		if e.Seq == 0 {
			r.seq.n++
			e.Seq = r.seq.n
		}
	}
	for _, s := range r.sinks {
		s.Record(e)
	}
}

// RingSink keeps the most recent capacity events in a fixed ring —
// the always-on, bounded-memory sink behind hared's /events endpoint.
type RingSink struct {
	mu      sync.Mutex
	buf     []Event
	next    int
	total   uint64
	dropped uint64

	// Optional registry mirrors of total/dropped (AttachMetrics), so a
	// truncated /events stream is detectable from /metrics instead of
	// silent.
	cTotal   *Counter
	cDropped *Counter
}

// NewRingSink returns a ring holding the last capacity events
// (minimum 1).
func NewRingSink(capacity int) *RingSink {
	if capacity < 1 {
		capacity = 1
	}
	return &RingSink{buf: make([]Event, 0, capacity)}
}

// Record implements Sink.
func (s *RingSink) Record(e Event) {
	s.mu.Lock()
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, e)
	} else {
		s.buf[s.next] = e
		s.dropped++
		if s.cDropped != nil {
			s.cDropped.Inc()
		}
	}
	s.next = (s.next + 1) % cap(s.buf)
	s.total++
	if s.cTotal != nil {
		s.cTotal.Inc()
	}
	s.mu.Unlock()
}

// AttachMetrics registers overflow gauges for this ring in reg:
// hare_obs_ring_events_total counts every event recorded, and
// hare_obs_ring_dropped_total counts events overwritten before being
// read — a nonzero, growing dropped counter means the ring capacity is
// too small for the event rate and /events is showing a truncated
// stream.
func (s *RingSink) AttachMetrics(reg *Registry) {
	if reg == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cTotal = reg.Counter("hare_obs_ring_events_total")
	s.cDropped = reg.Counter("hare_obs_ring_dropped_total")
	s.cTotal.Add(float64(s.total))
	s.cDropped.Add(float64(s.dropped))
}

// Snapshot returns the retained events oldest-first without clearing.
func (s *RingSink) Snapshot() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ordered()
}

// Dump writes the retained events to path as fsynced JSONL, replacing
// any previous dump: the ring as a per-process flight recorder, whose
// last-N events survive a crash, a fence or an invariant violation even
// when the process's main event stream was cut mid-line. A nil ring
// dumps nothing and reports no error.
func (s *RingSink) Dump(path string) error {
	if s == nil {
		return nil
	}
	return WriteEventsJSONL(path, s.Snapshot())
}

// ordered assembles oldest-first under the held lock.
func (s *RingSink) ordered() []Event {
	out := make([]Event, 0, len(s.buf))
	if len(s.buf) == cap(s.buf) {
		out = append(out, s.buf[s.next:]...)
		out = append(out, s.buf[:s.next]...)
	} else {
		out = append(out, s.buf...)
	}
	return out
}

// CollectSink retains every event unboundedly — for tests and for
// one-shot runs that export a full trace afterwards.
type CollectSink struct {
	mu     sync.Mutex
	events []Event
}

// NewCollectSink returns an empty collector.
func NewCollectSink() *CollectSink { return &CollectSink{} }

// Record implements Sink.
func (s *CollectSink) Record(e Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Events returns a copy of everything recorded, in emission order.
func (s *CollectSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}
