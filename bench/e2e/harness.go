package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// sizes fixes how much work each workload does. The measured numbers
// are only comparable at equal sizes, so they are constants of the
// benchmark (fullSizes, also spelled out in BENCHMARK.json), never
// flags; the in-package test swaps in tinySizes.
type sizes struct {
	setupReps int // set-up repetitions behind the setup_s median
	warmups   int // unmeasured ops that end every set-up

	// plan-online: planPool instances of planJobs jobs on planGPUs GPUs,
	// arrivals spread over planHorizon simulated seconds.
	planPool, planJobs, planGPUs int
	planHorizon                  float64
	// replay-sweep: replayPool instances of replayJobs jobs.
	replayPool, replayJobs, replayGPUs int
	replayHorizon                      float64
	roundsScale                        float64 // RoundsScale of both pools

	// Distributed workloads: batches of ≈batchTasks tasks drawn at
	// batchRounds RoundsScale.
	batchPool, batchTasks int
	batchRounds           float64
	// dist-recover: the crashed batch, and how many batches of that size
	// wjct_sim sums over (one batch alone swings ±25 % with the seed).
	recoverTasks, recoverPool int
	sessionBatches            int // daemon-reuse: consecutive batches per Manager
	reusePool, reuseTasks     int

	probeReps int // repetitions behind every per-layer probe median
}

var fullSizes = sizes{
	setupReps: 3, warmups: 5,
	planPool: 128, planJobs: 60, planGPUs: 32, planHorizon: 1080,
	replayPool: 24, replayJobs: 100, replayGPUs: 32, replayHorizon: 1800,
	roundsScale: 0.1,
	batchPool:   48, batchTasks: 75, batchRounds: 0.05,
	recoverTasks: 600, recoverPool: 12,
	sessionBatches: 15, reusePool: 45, reuseTasks: 40,
	probeReps: 5,
}

// env is what a workload needs from the run around it.
type env struct {
	seed   int64
	sz     sizes
	root   string    // scratch directory for WAL dirs and trace captures
	stderr io.Writer // warnings

	// extraAttempted/extraFailed count verification ops that run
	// outside the measured loop (kill→recover→complete cycles).
	extraAttempted, extraFailed int
	dirs                        int
}

// freshDir returns a new, empty directory under the scratch root.
func (e *env) freshDir(prefix string) (string, error) {
	e.dirs++
	dir := fmt.Sprintf("%s/%s-%d", e.root, prefix, e.dirs)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// runner is one of the five benchmark workloads.
type runner interface {
	// setup builds the inputs from e.seed, runs the references and
	// leaves the workload ready for its first op.
	setup(e *env) error
	// op runs operation i (closed loop, one at a time) and returns how
	// many tasks it covered plus a check of its outputs that the
	// harness runs outside the timed window. tr is nil on the untraced
	// pass.
	op(i int, tr *tracer) (tasks int, check func() error, err error)
	// cycle is the period of the op sequence: op i and op i+cycle() do
	// the same work (one turn through the pool; whole sessions for a
	// workload whose ops form sessions). Passes stop only between
	// cycles, so every run gives each pooled input the same weight and
	// its counts repeat exactly at a given seed.
	cycle() int
	// session is how many consecutive ops must run back to back on the
	// same pass (1 when ops are independent); it divides cycle().
	session() int
	// wjct is the simulated weighted JCT of the Hare plans of the
	// workload's inputs, summed over its pool.
	wjct() float64
	// layers fills the per-layer metrics of a traced run: the ones the
	// traced pass's spans and counts give, and the workload's probes.
	layers(tr *tracer, e *env, m metricSet) error
	// close releases what setup and the ops acquired.
	close() error
}

func newWorkload(name string) (runner, error) {
	switch name {
	case "plan-online":
		return &planOnline{}, nil
	case "replay-sweep":
		return &replaySweep{}, nil
	case "dist-durable":
		return &distDurable{}, nil
	case "dist-recover":
		return &distRecover{}, nil
	case "daemon-reuse":
		return &daemonReuse{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects named metrics; set refuses a name twice so "every
// metric exactly once" holds by construction.
type metricSet map[string]metricValue

func (m metricSet) set(name string, v float64) {
	if _, dup := m[name]; dup {
		panic(fmt.Sprintf("metric %s reported twice", name))
	}
	def, ok := metricByName(name)
	if !ok {
		panic(fmt.Sprintf("metric %s is not in the catalogue", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metricValue{Value: v, Unit: def.Unit}
}

// opSample is one successful measured op.
type opSample struct {
	seconds float64 // wall
	tasks   int
	cpu     float64 // user+sys CPU seconds spent inside the op
}

// passStats is what one closed-loop pass measured.
type passStats struct {
	ops       []opSample
	attempted int
	failed    int
	alloc     float64 // heap bytes allocated inside ops
	firstErr  error
}

// per returns f of every op, for a median.
func (p *passStats) per(f func(opSample) float64) []float64 {
	out := make([]float64, len(p.ops))
	for i, o := range p.ops {
		out[i] = f(o)
	}
	return out
}

func (p *passStats) seconds() []float64 {
	return p.per(func(o opSample) float64 { return o.seconds })
}

func (p *passStats) tasks() float64 {
	n := 0
	for _, o := range p.ops {
		n += o.tasks
	}
	return float64(n)
}

// cpuSeconds is the process's user+system CPU time, less what the
// modelled disk spun away (see diskWait).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime) - float64(diskBusyNS.Load())/1e9
}

// runOp runs one op with its output check and folds it into p. Failed
// ops still count as attempted; their time is not a latency sample.
func runOp(w runner, i int, tr *tracer, p *passStats) {
	p.attempted++
	cpu0, heap0 := cpuSeconds(), readHeap()
	root := tr.beginOp(i)
	t0 := now()
	tasks, check, err := w.op(i, tr)
	d := now() - t0
	tr.end(root)
	cpu1, heap1 := cpuSeconds(), readHeap()
	if err == nil && check != nil {
		err = check()
	}
	if err != nil {
		p.failed++
		if p.firstErr == nil {
			p.firstErr = fmt.Errorf("op %d: %w", i, err)
		}
		return
	}
	p.ops = append(p.ops, opSample{seconds: d, tasks: tasks, cpu: cpu1 - cpu0})
	p.alloc += heap1.bytes - heap0.bytes
}

// runOps runs ops i..i+n-1 and returns the index after them.
func runOps(w runner, i, n int, tr *tracer, p *passStats) int {
	for end := i + n; i < end; i++ {
		runOp(w, i, tr, p)
	}
	return i
}

// runPass runs whole cycles of ops from index 0 for at least `seconds`.
func runPass(w runner, seconds float64) *passStats {
	p := &passStats{}
	start := now()
	for i := 0; now()-start < seconds; {
		i = runOps(w, i, w.cycle(), nil, p)
	}
	return p
}

// runInterleaved runs the same ops untraced and traced, alternating
// session by session (op by op for most workloads) so that drift of the
// machine hits both sides alike, for at least `seconds` in total and
// until both sides have completed whole cycles.
func runInterleaved(w runner, seconds float64, tr *tracer) (plain, traced *passStats) {
	plain, traced = &passStats{}, &passStats{}
	start := now()
	for i := 0; now()-start < seconds || i%w.cycle() != 0; {
		runOps(w, i, w.session(), nil, plain)
		i = runOps(w, i, w.session(), tr, traced)
	}
	return plain, traced
}

// setUp runs one timed set-up: inputs, references and warm-up ops.
func setUp(name string, e *env, p *passStats) (runner, float64, error) {
	t0 := now()
	w, err := newWorkload(name)
	if err != nil {
		return nil, 0, err
	}
	if err := w.setup(e); err != nil {
		w.close()
		return nil, 0, fmt.Errorf("%s: set-up: %w", name, err)
	}
	for i := 0; i < e.sz.warmups; i++ {
		runOp(w, i, nil, p)
	}
	return w, now() - t0, nil
}

// result is one workload's run.
type result struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Traced    bool      `json:"traced"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Ops       int       `json:"ops"` // measured ops behind the medians
	Metrics   metricSet `json:"metrics"`
	// FirstError explains a failed run.
	FirstError string `json:"first_error,omitempty"`
}

// runWorkload runs one workload at one seed: the untraced run that
// yields the end-to-end metrics, or the traced run that yields the
// per-layer ones.
func runWorkload(name string, seed int64, seconds float64, traced bool, sz sizes, root, outDir string, stderr io.Writer) (*result, error) {
	e := &env{seed: seed, sz: sz, root: root, stderr: stderr}
	res := &result{Workload: name, Seed: seed, Traced: traced, Metrics: metricSet{}}
	warm := &passStats{}

	reps := sz.setupReps
	if traced {
		reps = 1 // setup_s is an end-to-end metric; the traced run needs one live workload
	}
	var w runner
	setups := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, fmt.Errorf("%s: close: %w", name, err)
			}
		}
		var s float64
		var err error
		if w, s, err = setUp(name, e, warm); err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	defer w.close()
	runtime.GC()

	var measured *passStats
	if !traced {
		measured = runPass(w, seconds)
		endToEndMetrics(res.Metrics, w, measured, setups)
	} else {
		// The same ops with and without the span recorder and the
		// timing decorators, so the overhead of tracing is itself
		// measured.
		tr := newTracer()
		var plain *passStats
		plain, measured = runInterleaved(w, seconds, tr)
		m := res.Metrics
		if err := w.layers(tr, e, m); err != nil {
			return nil, fmt.Errorf("%s: per-layer probes: %w", name, err)
		}
		m.set("bench.trace_overhead_share", traceOverhead(plain, measured))
		m.set("bench.selftime_residual_share", selfTimeResidual(tr.spans))
		m.set("bench.op_p90_s", percentile(plain.seconds(), 0.9))
		for _, def := range perLayer {
			if _, ok := m[def.Name]; !ok {
				m.set(def.Name, 0) // not a layer this workload exercises
			}
		}
		if err := tr.writeChrome(fmt.Sprintf("%s/trace-%s.json", outDir, name)); err != nil {
			return nil, err
		}
		measured.attempted += plain.attempted
		measured.failed += plain.failed
		if measured.firstErr == nil {
			measured.firstErr = plain.firstErr
		}
	}

	res.Ops = len(measured.ops)
	res.Attempted = warm.attempted + measured.attempted + e.extraAttempted
	res.Failed = warm.failed + measured.failed + e.extraFailed
	res.Correct = res.Failed == 0
	for _, err := range []error{warm.firstErr, measured.firstErr} {
		if err != nil && res.FirstError == "" {
			res.FirstError = err.Error()
		}
	}
	return res, nil
}

// traceOverhead is how much slower the traced ops ran: the median over
// ops of traced ÷ plain wall time of the same op, minus one. Both
// passes cover the same whole cycles, so the ops pair up; if a failed op
// broke the pairing the two medians are compared instead.
func traceOverhead(plain, traced *passStats) float64 {
	if len(plain.ops) != len(traced.ops) {
		return median(traced.seconds())/median(plain.seconds()) - 1
	}
	ratios := make([]float64, len(plain.ops))
	for i := range ratios {
		ratios[i] = traced.ops[i].seconds / plain.ops[i].seconds
	}
	return median(ratios) - 1
}

// endToEndMetrics fills the end-to-end metrics of an untraced run. The
// host-time metrics are medians over the measured ops — of the op's
// wall time, of its tasks per second and of its CPU per task — because
// this class of machine stalls in bursts, and a burst must not move a
// number more than the ops it hit. Allocation is a count and is summed.
func endToEndMetrics(m metricSet, w runner, p *passStats, setups []float64) {
	m.set("setup_s", median(setups))
	m.set("op_p50_s", median(p.seconds()))
	m.set("tasks_per_s", median(p.per(func(o opSample) float64 { return float64(o.tasks) / o.seconds })))
	m.set("cpu_ms_per_ktask", median(p.per(func(o opSample) float64 { return o.cpu * 1e3 / (float64(o.tasks) / 1e3) })))
	m.set("alloc_kb_per_task", p.alloc/1024/p.tasks())
	m.set("wjct_sim", w.wjct())
}

// percentile returns the smallest sample with at least a fraction p of
// the samples at or below it (nearest rank): of 100 samples, exactly
// 10 lie beyond the 0.9 percentile. Zero for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)) - 1e-9))
	return s[min(max(rank, 1), len(s))-1]
}

// median is the 0.5 percentile of a few probe repetitions.
func median(samples []float64) float64 { return percentile(samples, 0.5) }

// settleGoroutines waits for the goroutine count to drop to allowed —
// connection handlers and barrier timers of a finished batch take a
// moment to unwind — and reports the count it settled at.
func settleGoroutines(allowed int) (int, error) {
	deadline := now() + 2
	for {
		n := runtime.NumGoroutine()
		if n <= allowed {
			return n, nil
		}
		if now() > deadline {
			return n, fmt.Errorf("hygiene: %d goroutines still running, want at most %d", n, allowed)
		}
		//lint:allow walltime polling for goroutine exit between ops, outside every timed window
		time.Sleep(200 * time.Microsecond)
	}
}
