package rpcnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/faults"
	"hare/internal/model"
	"hare/internal/obs"
	"hare/internal/testbed"
)

// The executor side of the distributed testbed. RunExecutorOpts is a
// session loop: each session dials the coordinator, handshakes with
// Config (learning the coordinator epoch and the shared clock), then
// pulls and runs tasks until the run completes.
// Transient failures — dropped or delayed messages, a network
// partition, a coordinator kill-and-recover — tear the session down
// and the loop re-handshakes; every call is safe to repeat (a repeated
// Next is sent the GPU's in-flight task again, duplicate pushes and
// reports are absorbed idempotently), and the coordinator epoch tells a
// session to re-handshake after a recovery. Only genuine local failures
// (or a simulated crash) end the executor.

// errCrashed marks a simulated executor crash (crash=G@T fault).
var errCrashed = errors.New("rpcnet: executor crashed (simulated fault)")

// permanentError marks an executor-side failure that re-handshaking
// cannot fix.
type permanentError struct{ err error }

func (p permanentError) Error() string { return p.err.Error() }
func (p permanentError) Unwrap() error { return p.err }

// callRetries bounds per-call retries of injected drops.
const callRetries = 16

// ExecutorOptions tune RunExecutorOpts. The zero value means no
// chaos and the default reconnect budget.
type ExecutorOptions struct {
	// Chaos injects network faults into every RPC of this executor;
	// nil or empty disables injection. ChaosSeed seeds the draw stream
	// and the dial/reconnect backoff jitter (the per-GPU streams are
	// derived from it, so one seed covers a whole fleet
	// deterministically).
	Chaos     *faults.NetChaos
	ChaosSeed int64
	// MaxReconnects bounds *consecutive* sessions that fail before the
	// Config handshake; a successful handshake resets the budget.
	// Defaults to 12.
	MaxReconnects int
	// Recorder receives executor-side net.fault and rpc.client events;
	// Metrics accumulates chaos counters and the hare_rpc_client_*
	// families. Both optional.
	Recorder *obs.Recorder
	Metrics  *obs.Registry
}

// execObs is the executor process's RPC observation state: one handle
// per coordinator method plus the process-wide trace call-id counter.
// The counter outlives sessions on purpose — a re-handshake after a
// torn connection must not reissue ids the dead session already put on
// the wire, or the cross-process merge would pair the wrong events.
// nil (observation off) is a valid receiver everywhere.
type execObs struct {
	methods    [numMethods]*obs.RPCMethod // by wire index
	calls      *atomic.Uint64
	reconnects *obs.Counter
}

func newExecObs(rec *obs.Recorder, reg *obs.Registry, gpu int) *execObs {
	o := obs.NewRPCObserver(rec, reg, "client")
	if o == nil {
		return nil
	}
	e := &execObs{
		calls:      new(atomic.Uint64),
		reconnects: reg.Counter(fmt.Sprintf(`hare_exec_reconnects_total{gpu="%d"}`, gpu)),
	}
	for m, name := range wireMethods {
		e.methods[m] = o.Method(name)
	}
	return e
}

// method returns method m's handle.
func (e *execObs) method(m int) *obs.RPCMethod {
	if e == nil {
		return nil
	}
	return e.methods[m]
}

// gpuSeed derives GPU gpu's stream from a fleet-wide seed: distinct
// per-GPU draws even under a shared seed.
func gpuSeed(seed int64, gpu int) int64 {
	return seed ^ (int64(gpu)+1)*0x9e3779b9
}

// RunExecutorOpts connects to the coordinator at addr and runs one
// GPU's share of the batch to completion, with optional chaos injection
// and a tuned reconnect budget.
func RunExecutorOpts(addr string, gpu int, opts ExecutorOptions) error {
	if opts.MaxReconnects <= 0 {
		opts.MaxReconnects = 12
	}
	ch := newNetChaos(opts.Chaos, opts.ChaosSeed, gpu, opts.Recorder, opts.Metrics)
	eobs := newExecObs(opts.Recorder, opts.Metrics, gpu)
	dialSeed := gpuSeed(opts.ChaosSeed, gpu)
	rng := &lazyRNG{seed: dialSeed}
	// The crash channel is shared across sessions: a simulated crash
	// is a property of the executor process, not of one connection.
	crashed := make(chan struct{})
	crashOnce := new(sync.Once)
	fails := 0
	var lastErr error
	for {
		// Inside a partition window, dialing and calling are both
		// pointless; wait the window out instead of burning the
		// reconnect budget.
		if d := ch.partitionRemaining(); d > 0 {
			if !sleepOrCrash(d+5*time.Millisecond, crashed) {
				return errCrashed
			}
			continue
		}
		handshook, err := runExecutorSession(addr, gpu, ch, eobs, rng, dialSeed, crashed, crashOnce)
		if err == nil {
			return nil
		}
		if errors.Is(err, errCrashed) {
			return errCrashed
		}
		var perm permanentError
		if errors.As(err, &perm) || isFatalRPC(err) || !isSessionRetryable(err) {
			return err
		}
		lastErr = err
		if handshook {
			fails = 0
		}
		fails++
		if eobs != nil {
			eobs.reconnects.Inc()
		}
		if fails > opts.MaxReconnects {
			return fmt.Errorf("rpcnet: executor %d gave up after %d fruitless reconnects: %w", gpu, fails-1, lastErr)
		}
		backoff := 50 * time.Millisecond << min(fails-1, 4)
		if !sleepOrCrash(time.Duration(float64(backoff)*rng.uniform(0.5, 1.5)), crashed) {
			return errCrashed
		}
	}
}

// StartFleet runs one executor goroutine per GPU of an n-GPU fleet
// against the coordinator at addr, each with the options optsFor returns
// for it. wait blocks until all have exited and yields their exit errors
// by GPU — which a caller may ignore: under crash faults and fences a
// failed executor is expected, and the coordinator's result is what says
// whether the run succeeded.
func StartFleet(addr string, n int, optsFor func(gpu int) ExecutorOptions) (wait func() []error) {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = RunExecutorOpts(addr, g, optsFor(g))
		}()
	}
	return func() []error {
		wg.Wait()
		return errs
	}
}

// sleepOrCrash sleeps for d, returning false early if the executor's
// simulated crash fires first.
func sleepOrCrash(d time.Duration, crashed <-chan struct{}) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-crashed:
		return false
	}
}

// isSessionRetryable classifies errors a fresh session (re-dial +
// re-handshake) can fix: chaos injections, torn connections (a TCP
// error, or a pipe's EOF and closed-pipe errors), a coordinator that
// died (and may recover), and protocol staleness after a recovery.
// Server-side errors cross the wire as text (serverError), so the
// protocol markers are matched textually.
func isSessionRetryable(err error) bool {
	if err == nil {
		return false
	}
	for _, target := range []error{errInjectedDrop, errInjectedPartition, io.EOF, io.ErrUnexpectedEOF, io.ErrClosedPipe} {
		if errors.Is(err, target) {
			return true
		}
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	s := err.Error()
	for _, marker := range []string{
		"stale coordinator epoch",
		"coordinator down",
		"injected message drop",
		"injected network partition",
		"connection refused",
		"connection reset",
		"broken pipe",
		"use of closed network connection",
		"EOF",
	} {
		if strings.Contains(s, marker) {
			return true
		}
	}
	return false
}

// isFatalRPC classifies coordinator verdicts no retry can change.
func isFatalRPC(err error) bool {
	if err == nil {
		return false
	}
	s := err.Error()
	return strings.Contains(s, "is fenced") || strings.Contains(s, "unknown GPU")
}

// execSession is one dial-to-teardown conversation with the
// coordinator.
type execSession struct {
	conn  *client
	gpu   int
	epoch uint64
	// held is the dispatch being run: execClient.Begin answers from it.
	// ahead is the next one when the push of held brought it, nil when
	// the pull loop must call Next. Pull-loop goroutine only.
	held  NextReply
	ahead *NextReply
	chaos *netChaos
	obs   *execObs
	clock *testbed.Clock // nil until the Config handshake succeeds
	// crashed is closed when the executor's simulated crash (crash=G@T)
	// fires: from then on every call fails and no further gradients
	// leave the process — the coordinator must notice via the lease.
	crashed <-chan struct{}
	mu      sync.Mutex // guards rng (heartbeat goroutine vs pull loop)
	rng     *lazyRNG
}

// simNow is the session's simulated time — zero before the handshake
// establishes the shared clock (dtrace excludes Config from offset
// estimation for exactly this reason).
func (s *execSession) simNow() float64 {
	if s.clock == nil {
		return 0
	}
	return s.clock.Now()
}

// call performs one observed call of method m, retrying injected drops
// up to retries times. When tracing is on, the arguments are stamped
// with a fresh process-wide call id before the first attempt; retries
// reuse it, so a duplicated wire call keeps one trace identity and the
// merge can pair client and server events unambiguously.
func (s *execSession) call(m int, args, reply any, retries int) error {
	select {
	case <-s.crashed:
		return errCrashed
	default:
	}
	o := s.obs.method(m)
	var call uint64
	if o.Active() {
		call = s.obs.calls.Add(1)
		stampCall(args, call)
	}
	t := o.Start(s.simNow())
	err := s.callRetry(m, args, reply, retries)
	o.Observe(t, s.simNow(), obs.Event{GPU: s.gpu, Call: call, Epoch: s.epoch}, err)
	return err
}

// stampCall sets the trace call id of a method's arguments.
func stampCall(args any, call uint64) {
	switch a := args.(type) {
	case *ExecutorConfigArgs:
		a.Call = call
	case *HeartbeatArgs:
		a.Call = call
	case *NextArgs:
		a.Call = call
	case *PushArgs:
		a.Call = call
	case *ReportArgs:
		a.Call = call
	}
}

// callRetry is the unobserved retry loop. A retry needs no reset of the
// reply: the wire decodes every field of it (wire.go).
func (s *execSession) callRetry(m int, args, reply any, retries int) error {
	backoff := 2 * time.Millisecond
	for attempt := 0; ; attempt++ {
		err := s.chaos.do(s.conn, m, args, reply)
		if err == nil || attempt >= retries || !errors.Is(err, errInjectedDrop) {
			return err
		}
		s.mu.Lock()
		d := time.Duration(float64(backoff) * s.rng.uniform(0.5, 1.5))
		s.mu.Unlock()
		time.Sleep(d)
		if backoff < 32*time.Millisecond {
			backoff *= 2
		}
	}
}

// execClient adapts the session to testbed.SyncClient — the one
// adapter between an executor and the control plane. Push is the only
// call that goes on the wire (duplicate-safe on the coordinator, so the
// retry wrapper applies), and it asks for the session's next dispatch
// too; the barrier and the parameters came with the dispatch the
// session holds, and beginning any other task is a bug no re-handshake
// fixes.
type execClient struct{ s *execSession }

func (c execClient) Begin(t core.TaskRef) (float64, []float64, error) {
	held := &c.s.held
	if held.Task != t {
		return 0, nil, permanentError{fmt.Errorf("rpcnet: executor %d holds the dispatch of %v, not of %v", c.s.gpu, held.Task, t)}
	}
	return held.RoundEnd, held.Params, nil
}

func (c execClient) Push(rep testbed.PushReport) (float64, error) {
	var reply PushReply
	if err := c.s.call(mPush, &PushArgs{Report: rep, Epoch: c.s.epoch}, &reply, callRetries); err != nil {
		return 0, err
	}
	c.s.ahead = reply.Next
	return reply.Completion, nil
}

// runExecutorSession runs one conversation with the coordinator.
// handshook reports whether Config succeeded (resets the caller's
// reconnect budget). A nil error means the executor's share of the
// run completed and was reported.
func runExecutorSession(addr string, gpu int, ch *netChaos, eobs *execObs, rng *lazyRNG, dialSeed int64,
	crashed chan struct{}, crashOnce *sync.Once) (handshook bool, err error) {
	conn, err := dialRPCSeeded(addr, dialSeed)
	if err != nil {
		return false, err
	}
	defer conn.Close()
	s := &execSession{conn: conn, gpu: gpu, chaos: ch, obs: eobs, crashed: crashed, rng: rng}

	var cfg ExecutorConfigReply
	if err := s.call(mConfig, &ExecutorConfigArgs{GPU: gpu}, &cfg, callRetries); err != nil {
		return false, fmt.Errorf("rpcnet: fetch config: %w", err)
	}
	s.epoch = cfg.CoordEpoch
	gt, err := cluster.TypeByName(cfg.GPUTypeName)
	if err != nil {
		return true, permanentError{err}
	}
	models := make([]*model.Model, len(cfg.ModelNames))
	for i, name := range cfg.ModelNames {
		if models[i], err = model.ByName(name); err != nil {
			return true, permanentError{err}
		}
	}
	// All executors share the coordinator's clock epoch, so simulated
	// timestamps agree across processes — including across a
	// coordinator recovery, which re-anchors its epoch to preserve
	// simulated-time continuity.
	clock, err := testbed.NewClockAt(time.Unix(0, cfg.EpochUnixNano), cfg.TimeScale)
	if err != nil {
		return true, permanentError{fmt.Errorf("rpcnet: config: %w", err)}
	}
	ch.setClock(clock)
	s.clock = clock

	stop := make(chan struct{})
	defer close(stop)
	if cfg.CrashAtSim >= 0 {
		go func() {
			timer := time.NewTimer(clock.Until(cfg.CrashAtSim))
			defer timer.Stop()
			select {
			case <-stop:
			case <-crashed:
			case <-timer.C:
				crashOnce.Do(func() { close(crashed) })
			}
		}()
	}

	// Heartbeats renew the lease until the session ends or the
	// simulated crash fails them (a crashed executor going silent is
	// exactly what the lease monitor exists to catch).
	hb := time.Duration(cfg.HeartbeatMillis) * time.Millisecond
	if hb <= 0 {
		hb = DefaultHeartbeatInterval
	}
	go func() {
		tick := time.NewTicker(hb)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			// Heartbeats are not retried: a dropped one is simply absorbed
			// by the next tick.
			var none struct{}
			err := s.call(mHeartbeat, &HeartbeatArgs{GPU: gpu, Epoch: s.epoch}, &none, 0)
			if err != nil && !errors.Is(err, errInjectedDrop) && !errors.Is(err, errInjectedPartition) {
				return // torn conn, stale epoch or fence: session will notice
			}
		}
	}()

	exec, err := testbed.NewRemoteExecutor(testbed.RemoteExecutorConfig{
		GPU: gpu, GPUType: gt,
		Instance: cfg.Instance, Models: models,
		Scheme: cfg.Scheme, Speculative: cfg.Speculative,
		Clock: clock, Sync: execClient{s: s},
		FaultRate: cfg.FaultRate, FaultSeed: cfg.FaultSeed,
		SlowFactor: cfg.SlowFactor,
	})
	if err != nil {
		return true, permanentError{err}
	}

	for {
		if s.ahead != nil {
			s.held, s.ahead = *s.ahead, nil
		} else {
			if err := s.call(mNext, &NextArgs{GPU: gpu, Epoch: s.epoch}, &s.held, callRetries); err != nil {
				return true, err
			}
		}
		if s.held.Done {
			break
		}
		if err := exec.RunTask(s.held.Task); err != nil {
			if errors.Is(err, errCrashed) {
				return true, errCrashed
			}
			if isFatalRPC(err) || isSessionRetryable(err) {
				return true, err
			}
			// A genuine local failure: surface it so the coordinator
			// fences this GPU and migrates the rest of its queue.
			var none struct{}
			_ = s.call(mReport, &ReportArgs{GPU: gpu, Err: err.Error(), Epoch: s.epoch}, &none, callRetries)
			return true, permanentError{err}
		}
	}
	var none struct{}
	return true, s.call(mReport, &ReportArgs{GPU: gpu, Epoch: s.epoch}, &none, callRetries)
}
