package main

import (
	"fmt"
	"runtime"
	"sync"

	"hare/internal/cluster"
	"hare/internal/manager"
	"hare/internal/obs"
	"hare/internal/rpcnet"
	"hare/internal/sched"
	"hare/internal/store"
)

// The two workloads that drive a manager.Manager over the distributed
// backend the way cmd/hared wires it (ring recorder, one registry, a
// journal): dist-durable with a fresh Manager and a durable journal (on
// the modelled disk) per op, daemon-reuse with one long-lived Manager
// behind its RPC front end and hared's default memory journal.

// leakPerBatch is the goroutine DistributedBackend.Execute leaves
// behind per batch today: it drops the coordinator's *rpcnet.Server, so
// the accept loop (and its listener) is never closed. The hygiene check
// tolerates exactly this much, and manager.leaked_goroutines_per_batch
// reports it so the fix has a number to move.
const leakPerBatch = 1

// newJournal builds the coordinator journal: hared's default memory
// journal, or — durable — the same journal on the modelled disk (see
// modelLog). On the traced pass the stores sit behind the timing
// decorators, which then time the modelled barriers too.
func newJournal(durable bool, tr *tracer) *rpcnet.Journal {
	if !durable && tr == nil {
		return rpcnet.NewMemJournal()
	}
	var snaps store.Store = store.NewMem()
	var log store.Log = store.NewMemLog()
	if durable {
		snaps, log = modelStore{snaps}, modelLog{log}
	}
	if tr != nil {
		snaps, log = timedStore{Store: snaps, tr: tr, name: "store.snap"}, timedLog{Log: log, tr: tr}
	}
	return rpcnet.NewJournal(snaps, log)
}

// obsPlane is the observability plane of one hared process: a ring of
// recent events and one registry. A workload builds it once and hands
// it to every Manager it boots — a ring per Manager would be pinned by
// every leaked coordinator (see leakPerBatch) at ~0.8 MB apiece, and the
// heap growth would drown the control-plane costs being measured.
type obsPlane struct {
	reg *obs.Registry
	rec *obs.Recorder
}

func newObsPlane() *obsPlane {
	p := &obsPlane{reg: obs.NewRegistry()}
	ring := obs.NewRingSink(4096)
	ring.AttachMetrics(p.reg)
	p.rec = obs.NewRecorder(ring)
	return p
}

// rpcCalls sums the coordinator's served calls so far, heartbeats apart
// (they tick on wall time, everything else follows the plan).
func (p *obsPlane) rpcCalls() (calls, heartbeats float64) {
	for _, method := range []string{"Config", "Next", "Push", "WaitRound", "LoadCheckpoint", "Report"} {
		calls += p.reg.Counter(fmt.Sprintf("hare_rpc_server_calls_total{method=%q}", method)).Value()
	}
	return calls, p.reg.Counter(`hare_rpc_server_calls_total{method="Heartbeat"}`).Value()
}

// distStack is one Manager over the distributed backend with hared's
// wiring.
type distStack struct {
	m     *manager.Manager
	ckpt  store.Store   // where the batch's checkpoints land
	timed *timedBackend // nil on the untraced pass
}

func newDistStack(cl *cluster.Cluster, plane *obsPlane, journal *rpcnet.Journal, tr *tracer) *distStack {
	s := &distStack{ckpt: store.NewMem()}
	opts := manager.Options{Recorder: plane.rec, Metrics: plane.reg}
	back := &manager.DistributedBackend{
		TimeScale: distTimeScale, Journal: journal, Store: s.ckpt, Recorder: plane.rec, Metrics: plane.reg,
	}
	opts.Backend = back
	if tr != nil {
		back.Store = timedStore{Store: s.ckpt, tr: tr, name: "store.ckpt"}
		s.timed = &timedBackend{Backend: back, tr: tr}
		opts.Backend = s.timed
		opts.Algorithm = timedAlgo{Algorithm: sched.NewHare(), tr: tr, name: "manager.plan_solve"}
	}
	s.m = manager.New(cl, opts)
	return s
}

// distCounts is what the traced ops of a distributed workload add up.
type distCounts struct {
	batches, tasks    int
	calls, heartbeats float64
	idle              []float64 // first-task idle (host seconds) per traced op
}

// record folds one traced batch in; calls0/hb0 are the plane's RPC
// counters from before the batch.
func (c *distCounts) record(s *distStack, plane *obsPlane, tasks int, calls0, hb0 float64) {
	c.batches++
	c.tasks += tasks
	c.idle = append(c.idle, s.timed.firstStart()*distTimeScale)
	calls, hb := plane.rpcCalls()
	c.calls += calls - calls0
	c.heartbeats += hb - hb0
}

// hygiene tracks the goroutine count across the batches of a workload.
// A window opens at rebase (workload start, or a daemon session's
// start, whose own server and client goroutines then sit in the base)
// and every checked batch may add leakPerBatch to it.
type hygiene struct {
	armed                bool
	base, batches, last  int // the open window
	leaked, totalBatches int // closed windows
}

func (h *hygiene) rebase() {
	if h.armed {
		h.leaked += h.last - h.base
		h.totalBatches += h.batches
	}
	h.armed = true
	h.base = runtime.NumGoroutine()
	h.batches, h.last = 0, h.base
}

// check asserts that after one more executed batch only the tolerated
// leak remains above the window's base.
func (h *hygiene) check() error {
	h.batches++
	n, err := settleGoroutines(h.base + h.batches*leakPerBatch)
	h.last = n
	return err
}

func (h *hygiene) leakedPerBatch() float64 {
	batches := h.totalBatches + h.batches
	if batches == 0 {
		return 0
	}
	return float64(h.leaked+h.last-h.base) / float64(batches)
}

// distLayerMetrics fills the manager/store/rpcnet metrics that the
// traced ops of both manager workloads produce. execSpan names the span
// whose self time is the manager's own share.
func distLayerMetrics(tr *tracer, m metricSet, c *distCounts, h *hygiene, execSpan string) {
	exec := tr.stats("manager.backend_execute")
	m.set("manager.plan_solve_s", median(tr.stats("manager.plan_solve").PerOp))
	m.set("manager.backend_execute_s", median(exec.PerOp))
	m.set("manager.first_task_idle_s", median(c.idle))
	m.set("manager.leaked_goroutines_per_batch", h.leakedPerBatch())

	var selfs []float64
	self := selfTimes(tr.spans)
	for i, s := range tr.spans {
		if s.Name == execSpan {
			selfs = append(selfs, self[i])
		}
	}
	m.set("manager.self_s", median(selfs))

	wal, snap, ckpt := tr.stats("store.wal.append"), tr.stats("store.snap.save"), tr.stats("store.ckpt.save")
	m.set("store.wal.appends_per_task", float64(wal.N)/float64(c.tasks))
	m.set("store.wal.bytes_per_record", tr.count("store.wal.bytes")/float64(wal.N))
	m.set("store.wal.append_us", wal.mean()*1e6)
	m.set("store.wal.busy_share", wal.Total/exec.Total)
	m.set("store.snap.saves_per_batch", float64(snap.N)/float64(c.batches))
	m.set("store.snap.kb_per_save", tr.count("store.snap.bytes")/1024/float64(snap.N))
	m.set("store.snap.save_ms", snap.mean()*1e3)
	m.set("store.snap.busy_share", snap.Total/exec.Total)
	m.set("store.ckpt.saves_per_batch", float64(ckpt.N)/float64(c.batches))
	m.set("store.ckpt.save_us", ckpt.mean()*1e6)
	m.set("rpcnet.rpc_calls_per_task", c.calls/float64(c.tasks))
	m.set("rpcnet.heartbeats_per_batch", c.heartbeats/float64(c.batches))
}

// checkStatuses verifies every job of the batch reached DONE.
func checkStatuses(jobs []manager.JobStatus, ids []int) error {
	byID := make(map[int]manager.JobStatus, len(jobs))
	for _, st := range jobs {
		byID[st.ID] = st
	}
	for _, id := range ids {
		if st, ok := byID[id]; !ok || st.State != manager.StateDone {
			return fmt.Errorf("job %d is %q (%s), want DONE", id, st.State, st.Error)
		}
	}
	return nil
}

// distDurable is the control-plane write path: every op boots a fresh
// Manager with a durable journal (hared -backend dist -wal-dir),
// submits one batch and executes it — net/rpc wire, the coordinator
// lock, gob WAL records made durable one by one, a snapshot every 32
// pushes. The durable barriers cost what the modelled disk charges (see
// modelLog); the real directory journal is timed by probeJournals.
// A fresh Manager per op keeps ops independent: a reused one floors
// arrivals at its horizon and idles (that effect is daemon-reuse's).
type distDurable struct {
	e     *env
	cl    *cluster.Cluster
	plane *obsPlane
	pool  []*batch
	sum   float64
	gc    genClocks
	hyg   hygiene
	cnt   distCounts
	// fsyncUS and readUS are the bare DirLog floor measured in set-up.
	fsyncUS, readUS float64
}

func (w *distDurable) setup(e *env) error {
	w.e, w.cl, w.plane = e, distFleet(), newObsPlane()
	var err error
	if w.pool, err = buildBatches(e.seed, e.sz.batchPool, e.sz.batchTasks, e.sz.batchRounds, w.cl, &w.gc); err != nil {
		return err
	}
	for _, b := range w.pool {
		w.sum += b.wjct
	}
	if w.fsyncUS, w.readUS, err = probeDirLog(e); err != nil {
		return err
	}
	if w.fsyncUS < 20 {
		fmt.Fprintf(e.stderr, "WARNING: fsync on %s takes %.1f µs — it is free on this filesystem, so rpcnet.dirjournal.us_per_task and store.dirlog.* degenerate into the memory-journal path; point -dir at a real disk\n",
			e.root, w.fsyncUS)
	}
	return nil
}

func (w *distDurable) op(i int, tr *tracer) (int, func() error, error) {
	b := w.pool[i%len(w.pool)]
	if !w.hyg.armed {
		w.hyg.rebase()
	}
	journal := newJournal(true, tr)
	var calls0, hb0 float64
	if tr != nil {
		calls0, hb0 = w.plane.rpcCalls()
	}
	s := newDistStack(w.cl, w.plane, journal, tr)
	ids := make([]int, len(b.reqs))
	var err error
	for k, r := range b.reqs {
		id := tr.begin("manager.submit")
		ids[k], err = s.m.Submit(r)
		tr.end(id)
		if err != nil {
			return 0, nil, err
		}
	}
	id := tr.begin("manager.execute_batch")
	res, err := s.m.ExecuteBatch()
	tr.end(id)
	if cerr := journal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, nil, err
	}
	if tr != nil {
		w.cnt.record(s, w.plane, b.tasks, calls0, hb0)
	}
	check := func() error {
		if err := checkExactlyOnce(b.in, res.Trace); err != nil {
			return err
		}
		if err := checkStatuses(s.m.Statuses(), ids); err != nil {
			return err
		}
		if err := checkParams(s.ckpt, b.ref); err != nil {
			return err
		}
		return w.hyg.check()
	}
	return b.tasks, check, nil
}

func (w *distDurable) cycle() int    { return len(w.pool) }
func (w *distDurable) session() int  { return 1 }
func (w *distDurable) wjct() float64 { return w.sum }
func (w *distDurable) close() error  { return nil }

func (w *distDurable) layers(tr *tracer, e *env, m metricSet) error {
	distLayerMetrics(tr, m, &w.cnt, &w.hyg, "manager.execute_batch")
	m.set("manager.submit_us", tr.stats("manager.submit").mean()*1e6)
	m.set("store.dirlog.append_fsync_us", w.fsyncUS)
	m.set("store.dirlog.read_us_per_record", w.readUS)
	m.set("workload.generate_s", w.gc.generate.mean())
	m.set("profile.build_instance_s", w.gc.buildInstance.mean())
	if err := probeJournals(e, w.cl, w.pool[0], m); err != nil {
		return err
	}
	return probeAttribution(e, w.cl, w.pool[0], m)
}

// daemonReuse is what a harectl user of a running hared sees: sessions
// of consecutive batches against one long-lived Manager behind
// manager.Serve/manager.Dial, hared's default wiring (memory journal,
// ring recorder, registry). No fsync happens here, so WAL group-commit
// predicts no move while wire, lock and obs changes do. It is also the
// only workload that shows the reused-Manager idle: arrivals are
// floored at the Manager's horizon while each backend batch restarts
// its clock at zero, so batch k sleeps for the summed makespans of
// batches 0..k-1 before its first task starts.
type daemonReuse struct {
	e     *env
	cl    *cluster.Cluster
	plane *obsPlane
	pool  []*batch
	sum   float64
	gc    genClocks
	hyg   hygiene
	cnt   distCounts

	// The open session.
	stack *distStack
	srv   *manager.Server
	cli   *manager.Client
}

// cycle is one turn through the pool, which set-up checks is a whole
// number of sessions.
func (w *daemonReuse) cycle() int   { return len(w.pool) }
func (w *daemonReuse) session() int { return w.e.sz.sessionBatches }

func (w *daemonReuse) setup(e *env) error {
	w.e, w.cl, w.plane = e, distFleet(), newObsPlane()
	if e.sz.reusePool%e.sz.sessionBatches != 0 {
		return fmt.Errorf("daemon-reuse: pool of %d batches is not a whole number of %d-batch sessions", e.sz.reusePool, e.sz.sessionBatches)
	}
	var err error
	if w.pool, err = buildBatches(e.seed, e.sz.reusePool, e.sz.reuseTasks, e.sz.batchRounds, w.cl, &w.gc); err != nil {
		return err
	}
	for _, b := range w.pool {
		w.sum += b.wjct
	}
	return nil
}

// openSession starts a daemon: Manager, RPC front end, one client.
func (w *daemonReuse) openSession(tr *tracer) error {
	w.stack = newDistStack(w.cl, w.plane, newJournal(false, tr), tr)
	var addr string
	var err error
	if w.srv, addr, err = manager.Serve("127.0.0.1:0", w.stack.m); err != nil {
		return err
	}
	if w.cli, err = manager.Dial(addr); err == nil {
		// One round trip proves the daemon serves this connection — and
		// that its handler goroutine exists before hygiene takes its base.
		_, err = w.cli.Statuses()
	}
	if err != nil {
		w.closeSession()
	}
	return err
}

func (w *daemonReuse) closeSession() error {
	var err error
	if w.cli != nil {
		err = w.cli.Close()
	}
	if w.srv != nil {
		if cerr := w.srv.Close(); err == nil {
			err = cerr
		}
	}
	w.srv, w.cli, w.stack = nil, nil, nil
	return err
}

func (w *daemonReuse) op(i int, tr *tracer) (int, func() error, error) {
	b := w.pool[i%len(w.pool)]
	index := i % w.e.sz.sessionBatches
	if index == 0 {
		// A session's first op pays the daemon's start-up (sub-ms
		// against a ≥10 ms batch).
		if err := w.closeSession(); err != nil {
			return 0, nil, err
		}
		if err := w.openSession(tr); err != nil {
			return 0, nil, err
		}
		w.hyg.rebase()
	} else if w.cli == nil {
		return 0, nil, fmt.Errorf("daemon-reuse: op %d has no open session", i)
	}
	s := w.stack
	var calls0, hb0 float64
	if tr != nil {
		calls0, hb0 = w.plane.rpcCalls()
	}
	ids := make([]int, len(b.reqs))
	for k, r := range b.reqs {
		id := tr.begin("manager.rpc.submit")
		var err error
		ids[k], err = w.cli.Submit(r)
		tr.end(id)
		if err != nil {
			return 0, nil, err
		}
	}
	id := tr.begin("manager.rpc.execute")
	rep, err := w.cli.Execute()
	tr.end(id)
	if err != nil {
		return 0, nil, err
	}
	id = tr.begin("manager.rpc.statuses")
	status, err := w.cli.ClusterStatuses()
	tr.end(id)
	if err != nil {
		return 0, nil, err
	}
	id = tr.begin("manager.rpc.critpath")
	text, err := w.cli.CritPath(ids[len(ids)-1])
	tr.end(id)
	if err != nil {
		return 0, nil, err
	}
	if tr != nil {
		w.cnt.record(s, w.plane, b.tasks, calls0, hb0)
	}
	check := func() error {
		if !rep.Ran || rep.Jobs != len(b.reqs) {
			return fmt.Errorf("execute ran=%v jobs=%d, want %d jobs", rep.Ran, rep.Jobs, len(b.reqs))
		}
		if err := checkStatuses(status.Jobs, ids); err != nil {
			return err
		}
		ran := 0
		for _, g := range status.GPUs {
			ran += g.Tasks
		}
		if ran != b.tasks {
			return fmt.Errorf("fleet ran %d tasks, batch has %d", ran, b.tasks)
		}
		if text == "" {
			return fmt.Errorf("empty critical-path report for job %d", ids[len(ids)-1])
		}
		if err := checkParams(s.ckpt, b.ref); err != nil {
			return err
		}
		return w.hyg.check()
	}
	return b.tasks, check, nil
}

func (w *daemonReuse) wjct() float64 { return w.sum }
func (w *daemonReuse) close() error  { return w.closeSession() }

func (w *daemonReuse) layers(tr *tracer, e *env, m metricSet) error {
	distLayerMetrics(tr, m, &w.cnt, &w.hyg, "manager.rpc.execute")
	m.set("manager.rpc.submit_us", tr.stats("manager.rpc.submit").mean()*1e6)
	m.set("manager.rpc.statuses_us", tr.stats("manager.rpc.statuses").mean()*1e6)
	m.set("manager.rpc.critpath_us", tr.stats("manager.rpc.critpath").mean()*1e6)
	// Traced ops run session after session, so the k-th recorded idle
	// belongs to batch k mod sessionBatches of its session.
	per, last := e.sz.sessionBatches, e.sz.sessionBatches-1
	var firstIdle, lastIdle []float64
	for k, idle := range w.cnt.idle {
		switch k % per {
		case 0:
			firstIdle = append(firstIdle, idle)
		case last:
			lastIdle = append(lastIdle, idle)
		}
	}
	m.set("manager.first_task_idle_growth_s", (median(lastIdle)-median(firstIdle))/float64(max(last, 1)))
	m.set("workload.generate_s", w.gc.generate.mean())
	m.set("profile.build_instance_s", w.gc.buildInstance.mean())
	return probeObs(e, w.cl, w.pool[0], m)
}

// runDirect serves one batch on the distributed control plane without a
// Manager around it — ServeDistributed, one executor per GPU, wait —
// and returns how long the serve call and the run took.
func runDirect(cl *cluster.Cluster, b *batch, opts rpcnet.DistributedOptions) (serveS, runS float64, res *rpcnet.DistributedResult, err error) {
	opts.TimeScale = distTimeScale
	t0 := now()
	srv, bound, wait, err := rpcnet.ServeDistributed("127.0.0.1:0", b.in, b.plan, cl, b.models, opts)
	if err != nil {
		return 0, 0, nil, err
	}
	t1 := now()
	var wg sync.WaitGroup
	for g := 0; g < cl.Size(); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// An executor's failure surfaces through wait().
			_ = rpcnet.RunExecutorOpts(bound, g, rpcnet.ExecutorOptions{Recorder: opts.Recorder, Metrics: opts.Metrics})
		}(g)
	}
	res, err = wait()
	wg.Wait()
	t2 := now()
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	return t1 - t0, t2 - t1, res, err
}
