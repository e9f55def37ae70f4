package perf

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"hare/internal/obs"
)

// phaseBuckets buckets phase durations from 10 µs to ~40 s in
// powers of four — planner solves and simulator event loops live in
// the microsecond-to-second range.
var phaseBuckets = []float64{1e-5, 4e-5, 1.6e-4, 6.4e-4, 2.56e-3, 1.024e-2, 4.096e-2, 0.16384, 0.65536, 2.62144, 10.48576, 41.94304}

// nopStop is handed out by the nil paths so callers can always invoke
// the returned stop function; being a package-level value, the
// disabled path allocates nothing.
var nopStop = func() {}

// PhaseRecorder times named phases of the repo's own machinery —
// plan-solve, simulator setup, the replay event loop — into an
// obs.Registry:
//
//	hare_perf_phase_seconds{phase="plan_solve"}       histogram
//	hare_perf_phase_last_seconds{phase="plan_solve"}  gauge
//
// A nil *PhaseRecorder (or one over a nil registry) is a valid no-op,
// so engine packages take one unconditionally and instrumented runs
// with telemetry off pay two nil checks per phase, not per event. The
// wall-clock reads live here, keeping time.Now out of the
// deterministic engine packages (harelint's walltime tier).
type PhaseRecorder struct {
	reg *obs.Registry

	mu    sync.Mutex
	hists map[string]*obs.Histogram
	lasts map[string]*obs.Gauge
}

// NewPhaseRecorder returns a recorder feeding reg (nil reg gives a
// no-op recorder).
func NewPhaseRecorder(reg *obs.Registry) *PhaseRecorder {
	if reg == nil {
		return nil
	}
	return &PhaseRecorder{
		reg:   reg,
		hists: make(map[string]*obs.Histogram),
		lasts: make(map[string]*obs.Gauge),
	}
}

// Start begins timing one phase and returns the function that stops
// it and records the elapsed seconds. Safe on a nil receiver.
func (p *PhaseRecorder) Start(phase string) (stop func()) {
	if p == nil || p.reg == nil {
		return nopStop
	}
	t0 := time.Now()
	return func() { p.Observe(phase, time.Since(t0).Seconds()) }
}

// Observe records an externally measured phase duration.
func (p *PhaseRecorder) Observe(phase string, seconds float64) {
	if p == nil || p.reg == nil {
		return
	}
	p.mu.Lock()
	h, ok := p.hists[phase]
	if !ok {
		label := "{phase=\"" + phase + "\"}"
		h = p.reg.Histogram("hare_perf_phase_seconds"+label, phaseBuckets)
		p.hists[phase] = h
		p.lasts[phase] = p.reg.Gauge("hare_perf_phase_last_seconds" + label)
	}
	last := p.lasts[phase]
	p.mu.Unlock()
	h.Observe(seconds)
	last.Set(seconds)
}

// SampleRuntime takes one sample of the process into reg:
//
//	hare_runtime_heap_objects_bytes    live heap (bytes)
//	hare_runtime_goroutines            live goroutines
//	hare_runtime_gomaxprocs            GOMAXPROCS
//	hare_runtime_num_cpu               machine CPUs
//
// Safe on a nil registry (no-op).
func SampleRuntime(reg *obs.Registry) {
	if reg == nil {
		return
	}
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(heap)
	if heap[0].Value.Kind() == metrics.KindUint64 {
		reg.Gauge("hare_runtime_heap_objects_bytes").Set(float64(heap[0].Value.Uint64()))
	}
	reg.Gauge("hare_runtime_goroutines").Set(float64(runtime.NumGoroutine()))
	reg.Gauge("hare_runtime_gomaxprocs").Set(float64(runtime.GOMAXPROCS(0)))
	reg.Gauge("hare_runtime_num_cpu").Set(float64(runtime.NumCPU()))
}

// RuntimeSampler periodically mirrors SampleRuntime into a registry
// — hared runs one next to its debug listener so /metrics always has
// a recent view of the process.
type RuntimeSampler struct {
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// StartRuntimeSampler samples immediately and then every interval
// (minimum 100 ms) until Stop. Returns nil on a nil registry.
func StartRuntimeSampler(reg *obs.Registry, interval time.Duration) *RuntimeSampler {
	if reg == nil {
		return nil
	}
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	SampleRuntime(reg)
	s := &RuntimeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				SampleRuntime(reg)
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// Stop halts the sampler and waits for its goroutine to exit. Safe on
// nil and safe to call twice.
func (s *RuntimeSampler) Stop() {
	if s == nil {
		return
	}
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

// Stopwatch measures one wall-clock span for packages that must not
// read the clock themselves (harelint's walltime policy): start it,
// do the work, read Seconds.
type Stopwatch struct{ t0 time.Time }

// StartStopwatch starts timing now.
func StartStopwatch() Stopwatch { return Stopwatch{t0: time.Now()} }

// Seconds returns the elapsed wall-clock seconds since the start.
func (s Stopwatch) Seconds() float64 { return time.Since(s.t0).Seconds() }
