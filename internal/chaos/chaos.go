package chaos

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/faults"
	"hare/internal/model"
	"hare/internal/obs/dtrace"
	"hare/internal/rpcnet"
	"hare/internal/sched"
	"hare/internal/store"
	"hare/internal/switching"
	"hare/internal/testbed"
	"hare/internal/workload"
)

// Detection parameters shared by every soak run. The scenario ranges
// in GenerateScenario are calibrated against these: a partition must
// end before a lease can expire, and reconnect grace must outlast the
// worst-case executor backoff ladder across a coordinator outage.
const (
	soakHeartbeat  = 5 * time.Millisecond
	soakLease      = 400 * time.Millisecond
	soakGrace      = 2 * time.Second
	soakSnapEvery  = 8
	soakReconnects = 50
	// paramTol bounds the final-checkpoint divergence from a
	// fault-free run; gradients are per-task deterministic, so only
	// float summation order may differ.
	paramTol = 1e-9
)

// Options configures soak runs.
type Options struct {
	// Jobs overrides the scenario's workload size (0 keeps it).
	Jobs int
	// TimeScale is the distributed run's wall-clock scale, positive and
	// finite (rpcnet.DistributedOptions.TimeScale); any other scale ends
	// every run with Err.
	TimeScale float64
	// Journal, when set, backs the run's WAL/snapshots (and survives
	// as an artifact on violation). Nil uses a fresh in-memory journal
	// per run.
	Journal *rpcnet.Journal
	// Watchdog bounds one run's wall time; exceeding it is a liveness
	// violation (lost or orphaned tasks). Default 90s.
	Watchdog time.Duration
	// TraceDir, when set, captures distributed traces: one
	// <proc>.events.jsonl per process (coord, gpu0..gpuN), each a durable
	// JSONL stream plus a flight ring dumped at forensic moments
	// (coordinator kills, violations), and the cross-process merge as
	// merged_trace.json.
	TraceDir string
	// Logf, when set, receives progress lines (e.g. t.Logf or a -v
	// printer).
	Logf func(format string, args ...any)
}

func (o Options) watchdog() time.Duration {
	if o.Watchdog <= 0 {
		return 90 * time.Second
	}
	return o.Watchdog
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Violation is one broken invariant: the seed and spec reproduce it,
// Invariant names the property, Detail says what was observed.
type Violation struct {
	Seed      int64
	Spec      string
	Invariant string
	Detail    string
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("chaos seed %d: invariant %q violated: %s (repro: -seeds 1 -start %d -spec %q)",
		v.Seed, v.Invariant, v.Detail, v.Seed, v.Spec)
}

// Outcome summarizes one soak run.
type Outcome struct {
	Seed     int64
	Spec     string
	Jobs     int
	Tasks    int
	Kills    int
	Makespan float64
	// Violation is nil for a clean run. Err reports an infrastructure
	// failure (workload could not even be built) — neither clean nor a
	// finding.
	Violation *Violation
	Err       error
}

// Run soaks one seed: generate its scenario, resolve it against the
// workload's planned makespan, execute, check invariants.
func Run(seed int64, opts Options) Outcome {
	sc := GenerateScenario(seed)
	jobs := sc.Jobs
	if opts.Jobs > 0 {
		jobs = opts.Jobs
	}
	h, err := newHarness(seed, jobs, opts)
	if err != nil {
		return Outcome{Seed: seed, Err: err}
	}
	return h.run(sc.Resolve(h.makespan))
}

// RunSpec soaks one seed under an explicit -fault-spec instead of the
// generated scenario (times in the spec are absolute simulated
// seconds, as printed by a violation).
func RunSpec(seed int64, spec string, opts Options) Outcome {
	jobs := GenerateScenario(seed).Jobs
	if opts.Jobs > 0 {
		jobs = opts.Jobs
	}
	h, err := newHarness(seed, jobs, opts)
	if err != nil {
		return Outcome{Seed: seed, Err: err}
	}
	fplan, err := faults.Parse(spec)
	if err != nil {
		return Outcome{Seed: seed, Err: err}
	}
	return h.run(fplan)
}

// harness holds one seed's workload, plan and fault-free reference so
// the minimizer can re-run many fault plans against identical inputs.
type harness struct {
	seed   int64
	opts   Options
	cl     *cluster.Cluster
	in     *core.Instance
	plan   *core.Schedule
	models []*model.Model
	// makespan is the fault-free planned makespan (simulated seconds)
	// that scenario fractions resolve against.
	makespan float64
	// ref is each job's final parameters from a fault-free in-process
	// run of the same plan.
	ref [][]float64
}

func newHarness(seed int64, jobs int, opts Options) (*harness, error) {
	cl := cluster.New([]cluster.Spec{
		{Type: cluster.V100, Count: 2}, {Type: cluster.T4, Count: 1},
	}, 4)
	specs := workload.Generate(workload.Options{
		NumJobs: jobs, RoundsScale: 0.05, MaxSync: cl.Size(), Seed: seed,
	})
	in := &core.Instance{NumGPUs: cl.Size()}
	models := make([]*model.Model, len(specs))
	for i, s := range specs {
		m := model.MustByName(s.Model)
		models[i] = m
		in.Jobs = append(in.Jobs, s.Job)
		tr := make([]float64, cl.Size())
		sy := make([]float64, cl.Size())
		for _, g := range cl.GPUs {
			tr[g.ID] = m.BatchSeconds(g.Type.Speed, 1) * 20
			sy[g.ID] = 0.05
		}
		in.Train = append(in.Train, tr)
		in.Sync = append(in.Sync, sy)
	}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("chaos: workload: %w", err)
	}
	plan, err := sched.NewHare().Schedule(in)
	if err != nil {
		return nil, fmt.Errorf("chaos: plan: %w", err)
	}
	if err := core.ValidateSchedule(in, plan); err != nil {
		return nil, fmt.Errorf("chaos: plan: %w", err)
	}
	h := &harness{
		seed: seed, opts: opts, cl: cl, in: in, plan: plan,
		models: models, makespan: plan.Makespan(in),
	}
	// Fault-free reference on the virtual clock: the checkpoint-equality
	// invariant compares every chaotic run against these parameters.
	refStore := store.NewMem()
	if _, err := testbed.Run(in, plan, cl, models, testbed.Options{Store: refStore}); err != nil {
		return nil, fmt.Errorf("chaos: reference run: %w", err)
	}
	if h.ref, err = loadParams(refStore, len(in.Jobs)); err != nil {
		return nil, fmt.Errorf("chaos: reference params: %w", err)
	}
	return h, nil
}

// run executes one fault plan under the supervisor (which performs the
// plan's coordinator kill/restart cycles) and checks every invariant.
func (h *harness) run(fplan *faults.Plan) Outcome {
	out := Outcome{Seed: h.seed, Spec: fplan.String(), Jobs: len(h.in.Jobs), Tasks: h.in.NumTasks()}
	if err := fplan.Validate(h.in.NumGPUs); err != nil {
		out.Err = fmt.Errorf("chaos: resolved plan: %w", err)
		return out
	}
	viol := func(invariant, format string, args ...any) Outcome {
		out.Violation = &Violation{
			Seed: h.seed, Spec: out.Spec,
			Invariant: invariant, Detail: fmt.Sprintf(format, args...),
		}
		return out
	}

	journal := h.opts.Journal
	if journal == nil {
		journal = rpcnet.NewMemJournal()
	}
	st := store.NewMem()
	// A nil fleet (tracing off) hands out nil recorders and ignores the
	// dump/close calls below.
	var fleet *dtrace.Fleet
	if h.opts.TraceDir != "" {
		var err error
		if fleet, err = dtrace.NewFleet(h.opts.TraceDir, h.cl.Size()); err != nil {
			out.Err = fmt.Errorf("chaos: trace: %w", err)
			return out
		}
	}

	type runEnd struct {
		out Outcome
	}
	done := make(chan runEnd, 1)
	// last holds the currently serving coordinator for the watchdog's
	// teardown; the supervisor replaces it across recoveries.
	var last struct {
		mu  sync.Mutex
		srv *rpcnet.Server
	}

	go func() {
		srv, bound, wait, err := rpcnet.ServeDistributed("127.0.0.1:0", h.in, h.plan, h.cl, h.models, rpcnet.DistributedOptions{
			TimeScale:         h.opts.TimeScale,
			Scheme:            switching.Hare, // what every manager backend runs under
			Speculative:       true,
			Store:             st,
			Faults:            fplan,
			Journal:           journal,
			SnapshotEvery:     soakSnapEvery,
			HeartbeatInterval: soakHeartbeat,
			LeaseTimeout:      soakLease,
			Recorder:          fleet.CoordRecorder(nil),
		})
		if err != nil {
			out.Err = fmt.Errorf("chaos: serve: %w", err)
			done <- runEnd{out}
			return
		}
		last.mu.Lock()
		last.srv = srv
		last.mu.Unlock()

		waitFleet := rpcnet.StartFleet(bound, h.cl.Size(), func(g int) rpcnet.ExecutorOptions {
			return rpcnet.ExecutorOptions{
				Chaos:         fplan.NetModel(),
				ChaosSeed:     fplan.NetSeed(),
				MaxReconnects: soakReconnects,
				Recorder:      fleet.ExecRecorder(g, nil),
			}
		})

		downs := fplan.NetModel().SortedCoordDowns()
		start := time.Now()
		var downtime time.Duration
		kills := 0
		var res *rpcnet.DistributedResult
		for {
			// Arm the next planned coordinator kill. The deadline maps
			// the outage's simulated anchor to wall time, shifted by the
			// downtime already served (the shared clock re-anchors across
			// recoveries, so earlier outages delay later sim instants).
			var killer *time.Timer
			if kills < len(downs) {
				at := start.
					Add(time.Duration(downs[kills].At * h.opts.TimeScale * float64(time.Second))).
					Add(downtime)
				d := time.Until(at)
				if d < 0 {
					d = 0
				}
				victim := srv
				killer = time.AfterFunc(d, func() { _ = victim.Kill() })
			}
			r, err := wait()
			if killer != nil {
				killer.Stop()
			}
			if err == nil {
				res = r
				break
			}
			if errors.Is(err, rpcnet.ErrCoordinatorDown) && kills < len(downs) {
				// Planned kill: serve the outage, then recover from the
				// journal on the same address so executors find it.
				h.opts.logf("seed %d: coordinator killed at outage %d/%d, down %v", h.seed, kills+1, len(downs), downs[kills].Dur)
				// Forensics: the events leading into the crash, and every
				// stream's tail on disk.
				if fleet != nil {
					_ = fleet.Coord.DumpFlight()
					fleet.Sync()
				}
				time.Sleep(downs[kills].Dur)
				downtime += downs[kills].Dur
				kills++
				srv, _, wait, err = rpcnet.RecoverDistributed(bound, journal, rpcnet.RecoverOptions{
					Store:          st,
					ReconnectGrace: soakGrace,
					Recorder:       fleet.CoordRecorder(nil),
				})
				if err != nil {
					done <- runEnd{viol("durability", "recovery %d from WAL failed: %v", kills, err)}
					return
				}
				last.mu.Lock()
				last.srv = srv
				last.mu.Unlock()
				continue
			}
			done <- runEnd{viol("run-error", "distributed run failed: %v", err)}
			return
		}
		execErrs := waitFleet()
		if kills < len(downs) {
			h.opts.logf("seed %d: run completed before %d of %d planned outages", h.seed, len(downs)-kills, len(downs))
		}
		out.Kills = kills
		out.Makespan = res.Makespan
		done <- runEnd{h.check(out, res, st, execErrs, fplan, kills, downtime)}
	}()

	var final Outcome
	select {
	case end := <-done:
		final = end.out
	case <-time.After(h.opts.watchdog()):
		last.mu.Lock()
		if last.srv != nil {
			_ = last.srv.Kill()
		}
		last.mu.Unlock()
		final = viol("liveness", "run exceeded the %v watchdog: lost or orphaned tasks", h.opts.watchdog())
	}
	// Merge failures are reported but never override the run's outcome.
	if final.Violation != nil {
		fleet.DumpFlights()
	}
	if err := fleet.Close(); err != nil {
		h.opts.logf("seed %d: chaos: merge trace: %v", h.seed, err)
	}
	return final
}

// check verifies every invariant of a completed run.
func (h *harness) check(out Outcome, res *rpcnet.DistributedResult, st store.Store, execErrs []error, fplan *faults.Plan, kills int, downtime time.Duration) Outcome {
	viol := func(invariant, format string, args ...any) Outcome {
		out.Violation = &Violation{
			Seed: h.seed, Spec: out.Spec,
			Invariant: invariant, Detail: fmt.Sprintf(format, args...),
		}
		return out
	}

	// Exactly-once: every planned task traced once, none twice, none
	// lost — duplicate gradient application would show up here.
	seen := make(map[core.TaskRef]bool, len(res.Trace.Records))
	for _, r := range res.Trace.Records {
		if seen[r.Task] {
			return viol("exactly-once", "task %+v executed twice", r.Task)
		}
		seen[r.Task] = true
	}
	if len(seen) != h.in.NumTasks() {
		return viol("exactly-once", "%d distinct tasks executed, want %d", len(seen), h.in.NumTasks())
	}

	// Fencing: no GPU fenced unless its failure was planned. (The
	// converse is timing-dependent — a crash scheduled after the GPU's
	// last report never manifests — so it is not an invariant.)
	planned := make(map[int]bool, len(fplan.SortedFailures()))
	for _, f := range fplan.SortedFailures() {
		planned[f.GPU] = true
	}
	for _, g := range res.FailedGPUs {
		if !planned[g] {
			return viol("no-false-fencing", "GPU %d fenced without a planned failure (fenced %v)", g, res.FailedGPUs)
		}
	}

	// Fence log: monotone sim times, one entry per GPU, and detection
	// latency bounded by lease + monitor tick + reconnect grace +
	// total coordinator downtime (a crash can only go undetected while
	// the monitor is dead or in post-recovery grace).
	boundMs := float64((soakLease + soakHeartbeat + soakGrace + downtime + 1500*time.Millisecond) / time.Millisecond)
	fencedBefore := make(map[int]bool, len(res.FenceLog))
	lastSim := math.Inf(-1)
	for _, f := range res.FenceLog {
		if fencedBefore[f.GPU] {
			return viol("fence-monotonic", "GPU %d fenced twice", f.GPU)
		}
		fencedBefore[f.GPU] = true
		if f.SimTime < lastSim {
			return viol("fence-monotonic", "fence log sim times regress: %g after %g", f.SimTime, lastSim)
		}
		lastSim = f.SimTime
		if f.DetectMillis > boundMs {
			return viol("lease-detection-bound", "GPU %d detected after %.0fms, bound %.0fms", f.GPU, f.DetectMillis, boundMs)
		}
	}
	if len(res.FenceLog) != len(res.FailedGPUs) {
		return viol("fence-monotonic", "%d fence log entries for %d fenced GPUs", len(res.FenceLog), len(res.FailedGPUs))
	}

	// Epoch accounting: each planned kill produced exactly one
	// recovery, and the final incarnation reflects the lineage.
	if res.Recoveries != kills {
		return viol("epoch", "%d recoveries recorded for %d kills", res.Recoveries, kills)
	}
	if res.Epoch != uint64(1+kills) {
		return viol("epoch", "final epoch %d, want %d after %d kills", res.Epoch, 1+kills, kills)
	}

	// Executors of healthy GPUs must exit cleanly; only a GPU with a
	// planned failure may abort (its crash or fence is the plan).
	for g, err := range execErrs {
		if err != nil && !planned[g] {
			return viol("executor-exit", "executor %d exited with %v without a planned failure", g, err)
		}
	}

	// Completions sane.
	for j, c := range res.JobCompletion {
		if c <= 0 || math.IsNaN(c) {
			return viol("completion", "job %d completion %g", j, c)
		}
	}

	// Checkpoint equality: the chaotic run's final parameters match the
	// fault-free reference to paramTol — drops, duplicate pushes,
	// migrations and WAL replays must not change the math.
	params, err := loadParams(st, len(h.in.Jobs))
	if err != nil {
		return viol("checkpoint-equality", "%v", err)
	}
	if d := maxParamDiff(h.ref, params); d > paramTol {
		return viol("checkpoint-equality", "final params diverge from fault-free run by %g (tol %g)", d, paramTol)
	}
	return out
}

// loadParams loads every job's latest checkpoint from a store.
func loadParams(st store.Store, jobs int) ([][]float64, error) {
	out := make([][]float64, jobs)
	for j := 0; j < jobs; j++ {
		data, err := st.Load(store.LatestKey(j))
		if err != nil {
			return nil, fmt.Errorf("job %d checkpoint: %w", j, err)
		}
		if out[j], err = store.DecodeParams(data); err != nil {
			return nil, fmt.Errorf("job %d decode: %w", j, err)
		}
	}
	return out, nil
}

func maxParamDiff(a, b [][]float64) float64 {
	var worst float64
	for j := range a {
		if len(a[j]) != len(b[j]) {
			return math.Inf(1)
		}
		for i := range a[j] {
			if d := math.Abs(a[j][i] - b[j][i]); d > worst {
				worst = d
			}
		}
	}
	return worst
}
