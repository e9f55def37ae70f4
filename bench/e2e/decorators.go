package main

import (
	"sync"
	"sync/atomic"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/manager"
	"hare/internal/model"
	"hare/internal/obs"
	"hare/internal/sched"
	"hare/internal/store"
	"hare/internal/trace"
)

// Decorators around the interfaces the layers already accept. The
// timing ones (timed*) exist only on the traced pass; the untraced pass
// hands the layers their plain implementations — but for the modelled
// disk (model*), which is part of dist-durable on both passes.

// timedAlgo spans every Schedule call and meters its allocations.
type timedAlgo struct {
	sched.Algorithm
	tr   *tracer
	name string // span name; allocations accumulate under name+".alloc_bytes"
}

func (a timedAlgo) Schedule(in *core.Instance) (*core.Schedule, error) {
	h0 := a.tr.heap()
	id := a.tr.begin(a.name)
	s, err := a.Algorithm.Schedule(in)
	a.tr.end(id)
	a.tr.add(a.name+".alloc_bytes", a.tr.heap().bytes-h0.bytes)
	return s, err
}

// SetRecorder forwards the recorder the manager offers its algorithm,
// so the traced pass emits the same sched-decision events as the
// untraced one.
func (a timedAlgo) SetRecorder(r *obs.Recorder) {
	if ra, ok := a.Algorithm.(interface{ SetRecorder(*obs.Recorder) }); ok {
		ra.SetRecorder(r)
	}
}

// timedBackend spans Execute and keeps the batch's trace so the
// harness can read when the first task started.
type timedBackend struct {
	manager.Backend
	tr *tracer

	mu   sync.Mutex
	last *trace.Trace
}

func (b *timedBackend) Execute(in *core.Instance, plan *core.Schedule, cl *cluster.Cluster, models []*model.Model) ([]float64, *trace.Trace, error) {
	id := b.tr.begin("manager.backend_execute")
	comp, tr, err := b.Backend.Execute(in, plan, cl, models)
	b.tr.end(id)
	b.mu.Lock()
	b.last = tr
	b.mu.Unlock()
	return comp, tr, err
}

// firstStart returns the earliest task start (simulated seconds) of the
// last executed batch.
func (b *timedBackend) firstStart() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.last == nil || len(b.last.Records) == 0 {
		return 0
	}
	first := b.last.Records[0].Start
	for _, r := range b.last.Records[1:] {
		first = min(first, r.Start)
	}
	return first
}

// timedLog records one leaf span and the payload size per WAL append.
type timedLog struct {
	store.Log
	tr *tracer
}

func (l timedLog) Append(rec []byte) error {
	t0 := now()
	err := l.Log.Append(rec)
	l.tr.leaf("store.wal.append", t0, now())
	l.tr.add("store.wal.bytes", float64(len(rec)))
	return err
}

func (l timedLog) Reset() error {
	t0 := now()
	err := l.Log.Reset()
	l.tr.leaf("store.wal.reset", t0, now())
	return err
}

// timedStore records one leaf span and the blob size per Save. The
// same decorator serves the snapshot store (name "store.snap") and the
// checkpoint store (name "store.ckpt"). An empty blob is the journal's
// Clear after a finished batch and is spanned apart, so saves count
// real snapshots. Loads are not spanned: the coordinator serves
// checkpoint loads outside its lock, so they overlap the serialized
// writes and would break the self-time tiling.
type timedStore struct {
	store.Store
	tr   *tracer
	name string
}

func (s timedStore) Save(key string, data []byte) error {
	t0 := now()
	err := s.Store.Save(key, data)
	if len(data) == 0 {
		s.tr.leaf(s.name+".clear", t0, now())
		return err
	}
	s.tr.leaf(s.name+".save", t0, now())
	s.tr.add(s.name+".bytes", float64(len(data)))
	return err
}

// The modelled disk under dist-durable's journal. The sandbox's real
// disk cannot be timed against a bound: the latency of one write+fsync
// wanders 3–5× within minutes while the CPU stays within 2 %. So the
// journal keeps its records and snapshots in memory and every durable
// barrier holds its caller for a fixed time instead. The real directory
// journal is timed by the probes (rpcnet.dirjournal.us_per_task,
// store.dirlog.*), unbounded.
const (
	// diskAppendS is one WAL append: a quiet DirLog.Append (write +
	// fsync) on the box the benchmark was sized on.
	diskAppendS = 340e-6
	// diskSaveS is one snapshot save (temp file, fsync, rename).
	diskSaveS = 1e-3
)

// diskBusyNS is the time spent in diskWait so far.
var diskBusyNS atomic.Int64

// diskWait holds the caller for d seconds of the benchmark's clock. It
// spins: a timed sleep overshoots by ~90 µs here (a millisecond once the
// Go runtime is idle), and a blocking system call sets off processor
// hand-offs in the runtime whose cost moves with the host's load. The
// spin is the device's time, not the program's, so cpuSeconds takes it
// back out.
func diskWait(d float64) {
	for deadline := now() + d; now() < deadline; {
	}
	diskBusyNS.Add(int64(d * 1e9))
}

// modelLog charges every durable barrier of a log to the modelled disk.
type modelLog struct{ store.Log }

func (l modelLog) Append(rec []byte) error {
	err := l.Log.Append(rec)
	diskWait(diskAppendS)
	return err
}

func (l modelLog) Reset() error {
	err := l.Log.Reset()
	diskWait(diskAppendS)
	return err
}

// modelStore charges every save of a snapshot store to the modelled
// disk.
type modelStore struct{ store.Store }

func (s modelStore) Save(key string, data []byte) error {
	err := s.Store.Save(key, data)
	diskWait(diskSaveS)
	return err
}

// gateLog lets exactly `at` appends through, then parks the next
// caller's return until release is closed — the appended record is
// already durable, so the directory holds precisely the state a
// process killed after its at-th fsync leaves behind. Appends run under
// the coordinator lock, so parking one freezes every state transition
// while the harness copies the directory.
type gateLog struct {
	store.Log
	at      int
	reached chan struct{}
	release chan struct{}

	mu sync.Mutex
	n  int
}

func newGateLog(inner store.Log, at int) *gateLog {
	return &gateLog{Log: inner, at: at, reached: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateLog) Append(rec []byte) error {
	err := g.Log.Append(rec)
	g.mu.Lock()
	g.n++
	hit := g.n == g.at
	g.mu.Unlock()
	if hit {
		close(g.reached)
		<-g.release
	}
	return err
}
