package rpcnet

import (
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"time"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/faults"
	"hare/internal/model"
	"hare/internal/obs"
	"hare/internal/sched"
	"hare/internal/store"
	"hare/internal/switching"
	"hare/internal/testbed"
	"hare/internal/trace"
)

// Distributed testbed mode: the scheduler process (ServeDistributed)
// hosts the parameter servers, the checkpoint store, and every task
// queue; executor processes (cmd/hare-executor, or RunExecutorOpts
// in-process) dial in, fetch their configuration, then *pull* tasks
// one at a time and run each against the remote control plane.
//
// Fault tolerance: executors heartbeat on a lease; a missed lease — or
// a planned device failure — fences the GPU, and the coordinator
// re-runs the scheduling algorithm on the residual instance
// (unfinished tasks × surviving GPUs, see faults.Residual) and refills
// the survivors' queues. The pull protocol is what makes this safe:
// the coordinator owns every not-yet-started task, so nothing is
// stranded inside a dead executor except its single in-flight task,
// which is re-queued (its round checkpoint makes re-execution
// convergence-neutral — the paper's relaxed scale-fixed
// synchronization, §2.2.3). Task measurements travel with each
// gradient push, so the coordinator's trace is complete even for GPUs
// that die later.
//
// Crash safety (docs/ROBUSTNESS.md): with a Journal attached, every
// accepted push, fence, and executor report is written ahead to a WAL
// and the full coordinator state (plan, queues, dedup set, fences,
// parameter-server models) is snapshotted periodically, so a killed
// coordinator restarts via RecoverDistributed and resumes the batch.
// The RPC protocol is built to survive the restart: every call after
// the handshake carries the coordinator epoch (bumped on recovery, so
// stale executors are told to re-handshake), Next is made at-most-once
// by per-GPU sequence numbers with a last-reply cache, and Push and
// Report are idempotent — a duplicate push (retried call, chaos
// duplication, or pre-crash push whose reply was lost) returns the
// memoized completion instead of aggregating twice.

// DistributedName is the registered net/rpc service name.
const DistributedName = "HareTestbedCoordinator"

// Default detection parameters (overridable in DistributedOptions).
const (
	// DefaultHeartbeatInterval is the executors' heartbeat period.
	DefaultHeartbeatInterval = 100 * time.Millisecond
	// DefaultLeaseTimeout fences a GPU whose last heartbeat (or push)
	// is older than this.
	DefaultLeaseTimeout = 2 * time.Second
	// DefaultSnapshotEvery is the number of accepted pushes between
	// WAL snapshots when a Journal is attached.
	DefaultSnapshotEvery = 32
)

// ErrCoordinatorDown marks calls aborted by Server.Kill — the
// coordinator process "died" and executors should retry until it is
// recovered.
var ErrCoordinatorDown = errors.New("rpcnet: coordinator down")

// ExecutorConfigArgs selects the GPU asking for its configuration.
// Call is the trace-context call id (see PushArgs).
type ExecutorConfigArgs struct {
	GPU  int
	Call uint64
}

// ExecutorConfigReply carries everything an external executor needs.
type ExecutorConfigReply struct {
	// Instance is the full scheduling problem (times are indexed by
	// [job][gpu]).
	Instance *core.Instance
	// GPUTypeName resolves to the cluster.GPUType locally.
	GPUTypeName string
	// ModelNames maps job → model zoo name.
	ModelNames []string
	// Scheme and Speculative configure switching.
	Scheme      switching.Scheme
	Speculative bool
	// TimeScale and EpochUnixNano align every process's clock.
	TimeScale     float64
	EpochUnixNano int64
	// FaultRate and FaultSeed configure transient failure injection.
	FaultRate float64
	FaultSeed int64
	// SlowFactor makes this executor a straggler (1 = healthy).
	SlowFactor float64
	// CrashAtSim, when >= 0, tells the executor to crash (stop
	// heartbeating and abort) at this simulated time.
	CrashAtSim float64
	// HeartbeatMillis is the heartbeat period in milliseconds.
	HeartbeatMillis int64
	// CoordEpoch is the coordinator's incarnation number, starting at
	// 1 and bumped on every WAL recovery. Every subsequent call must
	// echo it; a mismatch means the coordinator restarted and the
	// executor must re-handshake with Config.
	CoordEpoch uint64
}

// NextArgs asks the coordinator for the GPU's next task. Seq makes the
// dispatch at-most-once: the coordinator hands a fresh task out only
// for the expected next sequence number and replays the cached reply
// for the previous one, so a retried Next (lost reply) cannot strand a
// second dispatched task inside the network.
type NextArgs struct {
	GPU   int
	Seq   uint64
	Epoch uint64
	// Call is the trace-context call id (see PushArgs).
	Call uint64
}

// NextReply carries one dispatched task, or Done when the run has no
// work left. The dispatch brings along what the task needs from the
// control plane, so running it costs no further round trip before the
// push: RoundEnd is the realized end of the task's previous round (0
// for a round-0 task) and Params the job's current parameters. A round-r
// task is only dispatched once round r-1 has fully pushed, and round r
// cannot complete without this task's push, so both hold from dispatch
// until the push — across fault retries, re-handshakes and recoveries,
// which re-dispatch from the restored state.
type NextReply struct {
	Task     core.TaskRef
	Done     bool
	RoundEnd float64
	Params   []float64
}

// HeartbeatArgs renews a GPU's lease. Call is the trace-context call
// id (see PushArgs).
type HeartbeatArgs struct {
	GPU   int
	Epoch uint64
	Call  uint64
}

// ReportArgs carries one executor's final status. Task measurements
// travel with each Push, so the report only closes the executor out
// (or surfaces its error).
type ReportArgs struct {
	GPU int
	// Err is a non-empty string when the executor failed.
	Err   string
	Epoch uint64
	// Call is the trace-context call id (see PushArgs).
	Call uint64
}

// FenceInfo is one fencing decision, in order, for audit and invariant
// checking: when the GPU was fenced, why, and — for lease expiries —
// how long after the last heartbeat the monitor noticed.
type FenceInfo struct {
	GPU     int
	Reason  string
	SimTime float64
	// DetectMillis is the lease-expiry detection latency in wall
	// milliseconds (0 for non-lease fences: device faults, executor
	// error reports).
	DetectMillis float64
}

// DistributedOptions configures ServeDistributed.
type DistributedOptions struct {
	TimeScale   float64
	Scheme      switching.Scheme
	Speculative bool
	Store       store.Store
	// Faults is the failure plan: transient rate/seed (shipped to the
	// executors in their Config reply), stragglers, device failures
	// (fail=G@T — the coordinator fences the GPU at sim time T), and
	// executor crashes (crash=G@T — the executor process stops
	// heartbeating at sim time T and the lease monitor detects it).
	// Network chaos (Faults.Net) is executor-side and coordinator
	// outages (codown) are a supervisor's to perform; the coordinator
	// only records the spec so recovery can re-derive the plan. Callers
	// without a supervisor run Faults.CheckEngine(faults.Distributed).
	Faults *faults.Plan
	// HeartbeatInterval and LeaseTimeout tune failure detection; see
	// the package defaults. Detection latency in simulated time is
	// roughly LeaseTimeout / TimeScale.
	HeartbeatInterval time.Duration
	LeaseTimeout      time.Duration
	// Recorder receives coordinator-side events (gpu.failed,
	// task.migrated, resched.triggered, coord.recovered); nil disables.
	Recorder *obs.Recorder
	// Metrics, when set, accumulates recovery counters.
	Metrics *obs.Registry
	// Journal, when set, makes the coordinator crash-safe: accepted
	// pushes, fences and reports are written ahead to its log and the
	// full state is snapshotted every SnapshotEvery pushes, so
	// RecoverDistributed can resume the batch after a kill.
	Journal *Journal
	// SnapshotEvery is the accepted-push count between snapshots
	// (DefaultSnapshotEvery when <= 0).
	SnapshotEvery int
}

// withDefaults fills what the coordinator itself reads; Store defaults
// inside testbed.NewControlPlane.
func (o DistributedOptions) withDefaults() DistributedOptions {
	if o.TimeScale <= 0 {
		o.TimeScale = 1e-3
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = DefaultLeaseTimeout
	}
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = DefaultSnapshotEvery
	}
	return o
}

// coordinator is the scheduler-side RPC handler and task dispatcher: it
// wraps the durable state machine (coordState, state.go) with
// everything that is not state — sessions, leases, journaling,
// snapshots, events and metrics.
type coordinator struct {
	in    *core.Instance
	opts  DistributedOptions
	clock *testbed.Clock
	pss   []*testbed.ParameterServer

	// Control-plane tracing: per-method rpc.server observation handles
	// (nil when both recorder and metrics are off) plus the counters and
	// the per-GPU gauges behind `harectl top`.
	obsConfig, obsHeartbeat, obsNext, obsPush *obs.RPCMethod
	obsReport                                 *obs.RPCMethod
	cSnapshots, cLeaseRenews, cWALAppends     *obs.Counter
	gQueue, gInflight, gFenced, gLeaseAge     []*obs.Gauge
	gEpoch, gTasksLeft, gLeaseBound           *obs.Gauge

	mu   sync.Mutex
	cond *sync.Cond
	// st is the durable state; every change to it that must survive a
	// crash goes through commitLocked (journal, then st.apply).
	st *coordState
	// session[g] and nextSeq[g] implement at-most-once dispatch: a
	// re-handshake (Config) bumps the session — waking zombie Next
	// handlers from a dead connection — and resets the sequence.
	// Sessions and leases are not durable: a restart loses them anyway.
	session  []uint64
	nextSeq  []uint64
	lastNext []NextReply
	lease    []time.Time
	runErr   error

	// Durability plumbing.
	journal         *Journal
	snapHeader      coordSnapshot // the run-constant part of every snapshot
	pushesSinceSnap int

	// stopMonitor shuts the lease monitor down; wait and Kill can both
	// reach it, so it is a sync.OnceFunc (a no-op until serve starts one).
	stopMonitor func()
}

// newCoordinator wires a coordinator around an already-built control
// plane and state (fresh, or rebuilt from a journal).
func newCoordinator(in *core.Instance, st *coordState, gpuTypes, modelNames []string,
	opts DistributedOptions, clock *testbed.Clock, pss []*testbed.ParameterServer) *coordinator {
	co := &coordinator{
		in: in, opts: opts, clock: clock, pss: pss,
		cSnapshots:  opts.Metrics.Counter("hare_coord_snapshots_total"),
		st:          st,
		session:     make([]uint64, in.NumGPUs),
		nextSeq:     make([]uint64, in.NumGPUs),
		lastNext:    make([]NextReply, in.NumGPUs),
		lease:       make([]time.Time, in.NumGPUs),
		journal:     opts.Journal,
		snapHeader:  newSnapHeader(in, gpuTypes, modelNames, opts),
		stopMonitor: func() {},
	}
	co.cond = sync.NewCond(&co.mu)

	// Trace-context observation (all nil-safe when recorder and
	// metrics are both off).
	rpcObs := obs.NewRPCObserver(opts.Recorder, opts.Metrics, "server")
	co.obsConfig = rpcObs.Method("Config")
	co.obsHeartbeat = rpcObs.Method("Heartbeat")
	co.obsNext = rpcObs.Method("Next")
	co.obsPush = rpcObs.Method("Push")
	co.obsReport = rpcObs.Method("Report")
	co.cLeaseRenews = opts.Metrics.Counter("hare_lease_renewals_total")
	co.cWALAppends = opts.Metrics.Counter("hare_wal_appends_total")
	co.gEpoch = opts.Metrics.Gauge("hare_coord_epoch")
	co.gTasksLeft = opts.Metrics.Gauge("hare_dist_tasks_left")
	co.gLeaseBound = opts.Metrics.Gauge("hare_dist_lease_bound_ms")
	co.gQueue = make([]*obs.Gauge, in.NumGPUs)
	co.gInflight = make([]*obs.Gauge, in.NumGPUs)
	co.gFenced = make([]*obs.Gauge, in.NumGPUs)
	co.gLeaseAge = make([]*obs.Gauge, in.NumGPUs)
	for g := 0; g < in.NumGPUs; g++ {
		co.gQueue[g] = opts.Metrics.Gauge(fmt.Sprintf(`hare_dist_queue_depth{gpu="%d"}`, g))
		co.gInflight[g] = opts.Metrics.Gauge(fmt.Sprintf(`hare_dist_inflight{gpu="%d"}`, g))
		co.gFenced[g] = opts.Metrics.Gauge(fmt.Sprintf(`hare_dist_fenced{gpu="%d"}`, g))
		co.gLeaseAge[g] = opts.Metrics.Gauge(fmt.Sprintf(`hare_dist_lease_age_ms{gpu="%d"}`, g))
	}
	co.gLeaseBound.Set(float64(opts.LeaseTimeout.Milliseconds()))
	return co
}

// observe runs one handler under rpc.server observation, stamping the
// trace context (GPU, call id, epoch, journal watermark) onto the event.
// epoch is read after the handler ran (Config learns it from its own
// reply); the clock is read only when the method handle is live.
func (c *coordinator) observe(m *obs.RPCMethod, gpu int, call uint64, epoch *uint64, handle func() error) error {
	if !m.Active() {
		return handle()
	}
	t := m.Start(c.clock.Now())
	err := handle()
	m.Observe(t, c.clock.Now(), obs.Event{GPU: gpu, Call: call, Epoch: *epoch, LSN: c.journal.LSN()}, err)
	return err
}

// commitLocked is the one live transition path: write rec (about GPU
// gpu) ahead to the WAL when journaling, then fold it into the state —
// atomically under c.mu, so no snapshot sees a journaled-but-unapplied
// record and recovery replays exactly the accepted suffix. Handlers run
// st.check first; an append failure, or a record apply still rejects (a
// parameter server refusing the gradient is a synchronization-protocol
// violation, not a device fault), aborts the run. Caller holds c.mu.
func (c *coordinator) commitLocked(rec *journalRecord, gpu int) (effects, error) {
	if c.journal != nil {
		if err := c.journal.append(rec); err != nil {
			c.failLocked(fmt.Errorf("rpcnet: WAL append: %w", err))
			return effects{}, c.runErr
		}
		c.cWALAppends.Inc()
		if c.opts.Recorder.Enabled() {
			c.opts.Recorder.Emit(obs.Event{
				Type: obs.EvWALAppend, Time: rec.SimTime, GPU: gpu, Job: -1,
				Epoch: c.st.Epoch, LSN: rec.LSN, Note: rec.kind(),
			})
		}
	}
	fx, err := c.st.apply(rec)
	if err != nil {
		c.failLocked(err)
	}
	return fx, err
}

// updateGaugesLocked refreshes the per-GPU /metrics gauges `harectl
// top` renders: queue depth, in-flight, fence state and lease age
// (milliseconds; -1 for fenced GPUs, whose leases no longer matter).
// Caller holds c.mu.
func (c *coordinator) updateGaugesLocked(now time.Time) {
	c.gEpoch.Set(float64(c.st.Epoch))
	c.gTasksLeft.Set(float64(c.st.TasksLeft))
	for g := range c.st.GPUs {
		gs := &c.st.GPUs[g]
		c.gQueue[g].Set(float64(len(gs.Queue)))
		inflight := 0.0
		if gs.Inflight != noTask {
			inflight = 1
		}
		c.gInflight[g].Set(inflight)
		if gs.Failed {
			c.gFenced[g].Set(1)
			c.gLeaseAge[g].Set(-1)
		} else {
			c.gFenced[g].Set(0)
			c.gLeaseAge[g].Set(now.Sub(c.lease[g]).Seconds() * 1e3)
		}
	}
}

// checkEpochLocked rejects calls from an executor that handshook with
// a previous coordinator incarnation; the error text is the executor's
// cue to re-Config. Caller holds c.mu.
func (c *coordinator) checkEpochLocked(e uint64) error {
	if e != c.st.Epoch {
		return fmt.Errorf("rpcnet: stale coordinator epoch %d (current %d); re-handshake required", e, c.st.Epoch)
	}
	return nil
}

// Config hands an executor its full configuration. It doubles as the
// re-handshake after a coordinator recovery or an executor reconnect:
// the GPU's unfinished in-flight task (if any) is re-queued at the
// head of its queue, its dispatch sequence resets, and any Next
// handler from a previous session is superseded.
func (c *coordinator) Config(args ExecutorConfigArgs, reply *ExecutorConfigReply) error {
	return c.observe(c.obsConfig, args.GPU, args.Call, &reply.CoordEpoch, func() error { return c.config(args, reply) })
}

func (c *coordinator) config(args ExecutorConfigArgs, reply *ExecutorConfigReply) error {
	if err := c.st.checkGPU(args.GPU); err != nil {
		return err
	}
	crashAt := -1.0
	if f, ok := c.opts.Faults.FailureOf(args.GPU); ok && f.Crash {
		crashAt = f.Time
	}
	c.mu.Lock()
	if c.runErr != nil {
		err := c.runErr
		c.mu.Unlock()
		return err
	}
	if gs := &c.st.GPUs[args.GPU]; gs.Failed {
		c.mu.Unlock()
		return fmt.Errorf("rpcnet: GPU %d is fenced (%s)", args.GPU, gs.FenceReason)
	}
	c.st.requeueInflight(args.GPU)
	c.session[args.GPU]++
	c.nextSeq[args.GPU] = 0
	c.lastNext[args.GPU] = NextReply{}
	c.lease[args.GPU] = time.Now()
	epochNum := c.st.Epoch
	c.cond.Broadcast() // wake superseded Next handlers
	c.mu.Unlock()
	*reply = ExecutorConfigReply{
		Instance:        c.in,
		GPUTypeName:     c.snapHeader.GPUTypeNames[args.GPU],
		ModelNames:      c.snapHeader.ModelNames,
		Scheme:          c.opts.Scheme,
		Speculative:     c.opts.Speculative,
		TimeScale:       c.opts.TimeScale,
		EpochUnixNano:   c.clock.Epoch().UnixNano(),
		FaultRate:       c.opts.Faults.TransientRate(),
		FaultSeed:       c.opts.Faults.TransientSeed(),
		SlowFactor:      c.opts.Faults.SlowdownOf(args.GPU),
		CrashAtSim:      crashAt,
		HeartbeatMillis: c.opts.HeartbeatInterval.Milliseconds(),
		CoordEpoch:      epochNum,
	}
	return nil
}

// Heartbeat renews a GPU's lease. Fenced GPUs stay fenced.
func (c *coordinator) Heartbeat(args HeartbeatArgs, reply *struct{}) error {
	return c.observe(c.obsHeartbeat, args.GPU, args.Call, &args.Epoch, func() error { return c.heartbeat(args) })
}

func (c *coordinator) heartbeat(args HeartbeatArgs) error {
	if err := c.st.checkGPU(args.GPU); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkEpochLocked(args.Epoch); err != nil {
		return err
	}
	if c.st.GPUs[args.GPU].Failed {
		return fmt.Errorf("rpcnet: GPU %d is fenced", args.GPU)
	}
	now := time.Now()
	age := now.Sub(c.lease[args.GPU])
	c.lease[args.GPU] = now
	c.cLeaseRenews.Inc()
	if c.opts.Recorder.Enabled() {
		c.opts.Recorder.Emit(obs.Event{
			Type: obs.EvLeaseRenew, Time: c.clock.Now(), GPU: args.GPU, Job: -1,
			Epoch: c.st.Epoch, Call: args.Call, Dur: age.Seconds() / c.opts.TimeScale,
		})
	}
	return nil
}

// Next blocks until the GPU has an eligible task, the run is out of
// work, or the GPU is fenced. The time barrier stays executor-side: the
// reply carries the previous round's realized end and the executor
// sleeps to it on the shared clock; eligibility only prevents an
// executor from committing to a task whose dependencies could later be
// queued behind it. Dispatch is at-most-once: a duplicate of the
// previous sequence number replays the cached reply, anything else out
// of window is rejected, and a handler superseded by a newer handshake
// aborts instead of dispatching into a dead connection.
func (c *coordinator) Next(args NextArgs, reply *NextReply) error {
	return c.observe(c.obsNext, args.GPU, args.Call, &args.Epoch, func() error { return c.next(args, reply) })
}

func (c *coordinator) next(args NextArgs, reply *NextReply) error {
	g := args.GPU
	if err := c.st.checkGPU(g); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkEpochLocked(args.Epoch); err != nil {
		return err
	}
	if args.Seq+1 == c.nextSeq[g] {
		*reply = c.lastNext[g]
		return nil
	}
	if args.Seq != c.nextSeq[g] {
		return fmt.Errorf("rpcnet: GPU %d Next seq %d out of window (expected %d)", g, args.Seq, c.nextSeq[g])
	}
	sess := c.session[g]
	for {
		if c.runErr != nil {
			return c.runErr
		}
		if sess != c.session[g] {
			return fmt.Errorf("rpcnet: GPU %d dispatch superseded by a newer handshake", g)
		}
		if c.st.GPUs[g].Failed {
			return fmt.Errorf("rpcnet: GPU %d is fenced", g)
		}
		if c.st.TasksLeft == 0 {
			reply.Done = true
			c.lastNext[g] = *reply
			c.nextSeq[g]++
			return nil
		}
		if i := c.st.eligible(g); i >= 0 {
			t := c.st.dispatch(g, i)
			*reply = NextReply{Task: t, Params: c.pss[t.Job].Params()}
			if t.Round > 0 {
				reply.RoundEnd = c.st.Jobs[t.Job].RoundEnds[t.Round-1]
			}
			c.lastNext[g] = *reply
			c.nextSeq[g]++
			return nil
		}
		c.cond.Wait()
	}
}

// Push accepts a gradient. Fenced GPUs are rejected before the
// parameter server sees the gradient; duplicates (a retried call, a
// chaos-duplicated message, or a pre-crash push whose reply was lost)
// are answered idempotently with the memoized completion — the
// parameter server aggregates each task exactly once either way.
func (c *coordinator) Push(args PushArgs, reply *PushReply) error {
	return c.observe(c.obsPush, args.Report.GPU, args.Call, &args.Epoch, func() error { return c.push(args, reply) })
}

func (c *coordinator) push(args PushArgs, reply *PushReply) error {
	rec := &journalRecord{Kind: recPush, Push: args.Report}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkEpochLocked(args.Epoch); err != nil {
		return err
	}
	if c.runErr != nil {
		return c.runErr
	}
	if err := c.st.check(rec); err != nil {
		return err
	}
	if comp, dup := c.st.done[rec.Push.Task]; dup {
		reply.Completion = comp
		return nil
	}
	rec.SimTime = c.clock.Now()
	gs := &c.st.GPUs[rec.Push.GPU]
	prevFree, prevJob := gs.PrevFree, gs.PrevJob // its switch state before this push
	fx, err := c.commitLocked(rec, rec.Push.GPU)
	if err != nil {
		return err
	}
	reply.Completion = fx.completion
	c.lease[rec.Push.GPU] = time.Now() // a push is as good as a heartbeat
	c.emitTaskLocked(&rec.Push, fx.completion, prevFree, prevJob)
	c.pushesSinceSnap++
	if c.journal != nil && c.pushesSinceSnap >= c.opts.SnapshotEvery {
		c.snapshotLocked()
	}
	c.cond.Broadcast()
	return nil
}

// failLocked aborts the run with err (first error wins) and wakes
// every blocked handler. Caller holds c.mu.
func (c *coordinator) failLocked(err error) {
	if c.runErr == nil {
		c.runErr = err
	}
	c.cond.Broadcast()
}

// emitTaskLocked re-emits one accepted push as the task event sequence
// (obs.TaskRun) that sim and testbed record locally. Executors report
// measurements, not events, so the coordinator derives the stream at
// the only point where fencing and deduplication have already been
// decided — which is what guarantees at most one finish per task and
// lets retried/migrated executions stitch into sibling attempts
// downstream. Per-GPU push order is execution order, so each lane's
// stream is time-ordered. The executor reports the stall it actually
// paid but not its clean/context/init/transfer breakdown. Caller holds
// c.mu.
func (c *coordinator) emitTaskLocked(rep *testbed.PushReport, comp, prevFree float64, prevJob core.JobID) {
	run := obs.TaskRun{
		GPU: rep.GPU, Job: int(rep.Task.Job), Round: rep.Task.Round, Index: rep.Task.Index,
		PrevJob: int(prevJob), PrevFree: prevFree,
		Start: rep.Start, Train: rep.TrainEnd - rep.Start, Sync: comp - rep.TrainEnd, End: comp,
		Switch: rep.Switch, Hit: rep.Hit, Retries: rep.Retries,
		Model: c.in.Jobs[rep.Task.Job].Model,
	}
	c.opts.Recorder.BeginTask(run)
	c.opts.Recorder.EndTask(run)
}

// Report closes an executor out. Out-of-range GPU indices are rejected
// before the duplicate bookkeeping is touched; a duplicate report (a
// retried call whose first reply was lost) is accepted idempotently.
// An error report fences the GPU so its remaining work migrates
// instead of aborting the run.
func (c *coordinator) Report(args ReportArgs, reply *struct{}) error {
	return c.observe(c.obsReport, args.GPU, args.Call, &args.Epoch, func() error { return c.report(args) })
}

func (c *coordinator) report(args ReportArgs) error {
	rec := &journalRecord{Kind: recReport, GPU: args.GPU, Err: args.Err}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.st.check(rec); err != nil {
		return err
	}
	if err := c.checkEpochLocked(args.Epoch); err != nil {
		return err
	}
	if c.st.GPUs[args.GPU].Reported {
		return nil // idempotent duplicate
	}
	rec.SimTime = c.clock.Now()
	if _, err := c.commitLocked(rec, args.GPU); err != nil {
		return err
	}
	if args.Err != "" {
		c.markFailedLocked(args.GPU, "executor error: "+args.Err, 0)
	}
	c.cond.Broadcast()
	return nil
}

// fencePlan is everything one fencing decision changes, computed first,
// then journaled, then applied — so the WAL record and the in-memory
// transition are identical, and recovery replays fences byte-for-byte
// instead of re-running the (state-dependent) re-planner.
type fencePlan struct {
	GPU          int
	Reason       string
	SimTime      float64
	DetectMillis float64
	// Stranded lists the dead GPU's unfinished tasks.
	Stranded []core.TaskRef
	// Queues are the survivors' refilled queues (nil for fenced GPUs),
	// and Inflight the tasks the survivors run meanwhile (noTask for idle
	// and fenced GPUs); HasQueues distinguishes "no re-plan needed" from
	// an empty one.
	Queues    [][]core.TaskRef
	Inflight  []core.TaskRef
	HasQueues bool
	// Unrecoverable carries the run-ending error when recovery failed
	// (no survivors, re-plan error).
	Unrecoverable string
	Pending       int
	Alive         int
}

// markFailedLocked fences a GPU: it computes the fencing transition
// (stranded work, residual re-plan), commits it, announces it, and —
// fences being rare and changing a lot of state — snapshots. detect is
// the lease-expiry detection latency (zero for non-lease fences).
// Caller holds c.mu. Idempotent: an already-fenced GPU (duplicate
// failure report, racing monitor tick) is a no-op.
func (c *coordinator) markFailedLocked(gpu int, reason string, detect time.Duration) {
	if c.st.GPUs[gpu].Failed || c.runErr != nil {
		return
	}
	fp := c.computeFenceLocked(gpu, reason)
	fp.DetectMillis = detect.Seconds() * 1e3
	fx, err := c.commitLocked(&journalRecord{Kind: recFence, SimTime: fp.SimTime, Fence: fp}, gpu)
	if err != nil {
		return
	}
	rec := c.opts.Recorder
	if rec.Enabled() {
		rec.Emit(obs.Event{Type: obs.EvGPUFailed, Time: fp.SimTime, GPU: gpu, Job: -1, Note: fp.Reason})
	}
	if fx.fatal != nil {
		c.failLocked(fx.fatal)
		return
	}
	if fp.HasQueues {
		faults.EmitMigration(rec, fp.SimTime, gpu, fp.Pending, fp.Alive, fp.Stranded, fp.Queues)
	}
	c.cond.Broadcast()
	if c.journal != nil {
		c.snapshotLocked()
	}
}

// computeFenceLocked builds the fencing transition for gpu without
// mutating coordinator state. Caller holds c.mu.
func (c *coordinator) computeFenceLocked(gpu int, reason string) *fencePlan {
	st := c.st
	fp := &fencePlan{GPU: gpu, Reason: reason, SimTime: c.clock.Now()}
	// The dead GPU's stranded work: its queue plus its unclaimed
	// in-flight task (a claimed one already pushed its gradient).
	stranded := append([]core.TaskRef(nil), st.GPUs[gpu].Queue...)
	if t, ok := st.unclaimed(gpu); ok {
		stranded = append(stranded, t)
	}
	fp.Stranded = stranded

	// Re-plan every not-yet-dispatched task — the survivors' queues
	// too, since the residual schedule rebalances all remaining work.
	// In-flight tasks on survivors stay committed where they run.
	var pending []core.TaskRef
	var alive []int
	for g := range st.GPUs {
		if st.GPUs[g].Failed || g == gpu {
			continue
		}
		alive = append(alive, g)
		pending = append(pending, st.GPUs[g].Queue...)
	}
	pending = append(pending, stranded...)
	fp.Pending, fp.Alive = len(pending), len(alive)
	if len(pending) == 0 {
		return fp // nothing left to move; in-flight pushes finish the run
	}
	// The residual instance is re-planned with Algorithm 1.
	seqs, err := faults.Replan(c.in, pending, alive, sched.NewHare())
	if err != nil {
		fp.Unrecoverable = fmt.Sprintf("rpcnet: GPU %d fenced (%s): %v", gpu, reason, err)
		return fp
	}
	fp.Queues = make([][]core.TaskRef, len(st.GPUs))
	fp.Inflight = make([]core.TaskRef, len(st.GPUs))
	for g := range fp.Inflight {
		fp.Inflight[g] = noTask
	}
	for _, g := range alive {
		fp.Queues[g] = seqs[g]
		fp.Inflight[g] = st.GPUs[g].Inflight
	}
	fp.HasQueues = true
	return fp
}

// monitor is the lease/failure-injection loop: it fences GPUs whose
// lease expired and applies planned device failures at their simulated
// times.
func (c *coordinator) monitor(stop <-chan struct{}) {
	tick := time.NewTicker(c.opts.LeaseTimeout / 4)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		now := time.Now()
		simNow := c.clock.Now()
		c.mu.Lock()
		c.checkLeasesLocked(now, simNow)
		c.updateGaugesLocked(now)
		c.mu.Unlock()
	}
}

// checkLeasesLocked runs one failure-detection pass: planned device
// failures whose simulated time arrived, then lease expiries. The
// lease predicate is strictly "older than the timeout" — a heartbeat
// aged exactly LeaseTimeout is still alive, so detection latency is
// bounded below by the timeout itself and above by timeout plus one
// monitor tick. Caller holds c.mu.
func (c *coordinator) checkLeasesLocked(now time.Time, simNow float64) {
	if c.runErr != nil || c.st.TasksLeft == 0 {
		return
	}
	for g := range c.lease {
		if c.st.GPUs[g].Failed {
			continue
		}
		if f, ok := c.opts.Faults.FailureOf(g); ok && !f.Crash && simNow >= f.Time {
			c.markFailedLocked(g, fmt.Sprintf("injected device failure at t=%g", f.Time), 0)
			continue
		}
		if sinceHB := now.Sub(c.lease[g]); sinceHB > c.opts.LeaseTimeout {
			if c.opts.Recorder.Enabled() {
				c.opts.Recorder.Emit(obs.Event{
					Type: obs.EvLeaseExpired, Time: simNow, GPU: g, Job: -1,
					Epoch: c.st.Epoch, Dur: sinceHB.Seconds() / c.opts.TimeScale,
					Note: fmt.Sprintf("bound=%dms", c.opts.LeaseTimeout.Milliseconds()),
				})
			}
			c.markFailedLocked(g, fmt.Sprintf("lease expired (last heartbeat %.0fms ago)",
				sinceHB.Seconds()*1e3), sinceHB)
		}
	}
}

// kill makes the coordinator behave like a dead process: every blocked
// and future call errors with ErrCoordinatorDown and the lease monitor
// stops. The journal (if any) retains the WAL for RecoverDistributed.
func (c *coordinator) kill() {
	c.mu.Lock()
	c.failLocked(ErrCoordinatorDown)
	c.mu.Unlock()
	c.stopMonitor()
}

// finishedLocked reports run completion: no tasks left, and every GPU
// either reported or was fenced.
func (c *coordinator) finishedLocked() bool {
	if c.st.TasksLeft > 0 {
		return false
	}
	for _, gs := range c.st.GPUs {
		if !gs.Reported && !gs.Failed {
			return false
		}
	}
	return true
}

// DistributedResult is the coordinator's assembled outcome.
type DistributedResult struct {
	Trace         *trace.Trace
	JobCompletion []float64
	WeightedJCT   float64
	Makespan      float64
	TotalSwitch   float64
	SwitchCount   int
	ResidencyHits int
	Retries       int
	// GPUFailures counts fenced GPUs; FailedGPUs lists them.
	GPUFailures int
	FailedGPUs  []int
	// FenceLog is every fencing decision in order (including ones
	// replayed from the WAL after a recovery), with lease-expiry
	// detection latencies for the chaos harness's invariants.
	FenceLog []FenceInfo
	// TasksMigrated counts stranded tasks moved to survivors;
	// Reschedules the recovery passes that moved them.
	TasksMigrated int
	Reschedules   int
	// Recoveries counts completed WAL recoveries of this coordinator
	// lineage; Epoch is its final incarnation number (1 + Recoveries).
	Recoveries int
	Epoch      uint64
}

// ServeDistributed starts the coordinator for one planned run and
// returns (server, bound address, wait). wait blocks until every task
// has completed and every GPU has reported or been fenced, then
// assembles the result. A crashed or fenced executor no longer hangs
// wait: its work migrates and the run completes on the survivors (an
// error is returned only when the run is unrecoverable — no surviving
// GPUs, a failed re-plan, or a synchronization violation).
func ServeDistributed(addr string, in *core.Instance, plan *core.Schedule, cl *cluster.Cluster, models []*model.Model, opts DistributedOptions) (*Server, string, func() (*DistributedResult, error), error) {
	co, err := newDistributed(in, plan, cl, models, opts)
	if err != nil {
		return nil, "", nil, err
	}
	return co.serve(addr)
}

// newDistributed is ServeDistributed short of listening: validation,
// control plane, coordinator and (when journaling) the first snapshot.
func newDistributed(in *core.Instance, plan *core.Schedule, cl *cluster.Cluster, models []*model.Model, opts DistributedOptions) (*coordinator, error) {
	opts = opts.withDefaults()
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Faults.Validate(in.NumGPUs); err != nil {
		return nil, err
	}
	seqs, err := plan.ValidSequences(in, nil)
	if err != nil {
		return nil, fmt.Errorf("rpcnet: invalid plan: %w", err)
	}
	clock := testbed.NewClock(opts.TimeScale)
	pss, local, err := testbed.NewControlPlane(in, opts.Store, 0, 0, 0)
	if err != nil {
		return nil, err
	}
	gpuTypes, modelNames := make([]string, cl.Size()), make([]string, len(models))
	for g, gpu := range cl.GPUs {
		gpuTypes[g] = gpu.Type.Name
	}
	for j, m := range models {
		modelNames[j] = m.Name
	}
	st := newCoordState(in, seqs, local, testbed.ProblemDim)
	co := newCoordinator(in, st, gpuTypes, modelNames, opts, clock, pss)
	// Leases start now: an executor that never connects is eventually
	// fenced and its queue migrates instead of hanging the run.
	start := time.Now()
	for g := range co.lease {
		co.lease[g] = start
	}
	if co.journal != nil {
		co.mu.Lock()
		co.snapshotLocked() // a crash before the first push must still recover
		err := co.runErr
		co.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return co, nil
}

// serve exposes the coordinator on addr and returns the server, the
// bound address, and the result-assembling wait func. Shared by
// ServeDistributed and RecoverDistributed.
func (c *coordinator) serve(addr string) (*Server, string, func() (*DistributedResult, error), error) {
	srv := rpc.NewServer()
	if err := srv.RegisterName(DistributedName, c); err != nil {
		return nil, "", nil, fmt.Errorf("rpcnet: register: %w", err)
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", nil, fmt.Errorf("rpcnet: listen: %w", err)
	}
	s := &Server{lis: lis, co: c, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			s.track(conn)
			go func() {
				srv.ServeConn(conn)
				s.untrack(conn)
			}()
		}
	}()
	c.mu.Lock()
	c.updateGaugesLocked(time.Now()) // /metrics is meaningful before the first monitor tick
	c.mu.Unlock()
	stop := make(chan struct{})
	c.stopMonitor = sync.OnceFunc(func() { close(stop) })
	go c.monitor(stop)

	wait := func() (*DistributedResult, error) {
		defer c.stopMonitor()
		c.mu.Lock()
		for c.runErr == nil && !c.finishedLocked() {
			c.cond.Wait()
		}
		defer c.mu.Unlock()
		if c.runErr != nil {
			return nil, c.runErr
		}
		st := c.st
		res := &DistributedResult{
			Trace:         &trace.Trace{},
			JobCompletion: make([]float64, len(c.in.Jobs)),
			TotalSwitch:   st.SwitchTot,
			SwitchCount:   st.SwitchCnt,
			ResidencyHits: st.Hits,
			Retries:       st.Retries,
			TasksMigrated: st.Migrated,
			Reschedules:   st.Reschedule,
			FenceLog:      append([]FenceInfo(nil), st.FenceLog...),
			Recoveries:    st.Recovered,
			Epoch:         st.Epoch,
		}
		for _, r := range st.Records {
			res.Trace.Add(r)
		}
		res.FailedGPUs = st.fenced()
		res.GPUFailures = len(res.FailedGPUs)
		for _, j := range c.in.Jobs {
			comp := c.pss[j.ID].Completion()
			res.JobCompletion[j.ID] = comp
			res.WeightedJCT += j.Weight * comp
			if comp > res.Makespan {
				res.Makespan = comp
			}
		}
		// The batch is durable in the checkpoint store now; the WAL
		// has nothing left to recover.
		if c.journal != nil {
			if err := c.journal.Clear(); err != nil {
				return nil, fmt.Errorf("rpcnet: clear WAL after completion: %w", err)
			}
		}
		return res, nil
	}
	return s, lis.Addr().String(), wait, nil
}
