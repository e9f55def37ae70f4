package rpcnet

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hare/internal/core"
	"hare/internal/faults"
	"hare/internal/obs"
	"hare/internal/store"
	"hare/internal/testbed"
)

// pushesSoFar peeks at the coordinator's accepted-push count.
func pushesSoFar(srv *Server) int {
	srv.co.mu.Lock()
	defer srv.co.mu.Unlock()
	return len(srv.co.st.Records)
}

// awaitPushes blocks until the coordinator has accepted at least n
// gradients (or the deadline passes).
func awaitPushes(t *testing.T, srv *Server, n int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if pushesSoFar(srv) >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("coordinator accepted only %d pushes within %v (want >= %d)", pushesSoFar(srv), within, n)
}

// assertExactlyOnce checks the trace holds every task exactly once.
func assertExactlyOnce(t *testing.T, res *DistributedResult, in *core.Instance) {
	t.Helper()
	if len(res.Trace.Records) != in.NumTasks() {
		t.Fatalf("recorded %d tasks, want %d", len(res.Trace.Records), in.NumTasks())
	}
	seen := make(map[core.TaskRef]bool)
	for _, r := range res.Trace.Records {
		if seen[r.Task] {
			t.Errorf("task %v recorded twice", r.Task)
		}
		seen[r.Task] = true
	}
}

// TestKillRecoverMidBatch is the tentpole test: the coordinator is
// killed mid-batch while the network drops and duplicates messages,
// then recovered from its journal on the same address. Reconnecting
// executors re-handshake against the bumped epoch, duplicate pushes
// are absorbed by the recovered dedup set, and the run completes with
// every task applied exactly once and final checkpoints matching a
// crash-free run to 1e-9.
func TestKillRecoverMidBatch(t *testing.T) { killRecoverMidBatch(t, "127.0.0.1:0") }

// TestKillRecoverMidBatchMem is TestKillRecoverMidBatch over an
// in-memory listener: the killed coordinator releases its mem: name,
// the recovered one listens under it again, and the executors ride out
// the kill on the pipes' errors.
func TestKillRecoverMidBatchMem(t *testing.T) { killRecoverMidBatch(t, "mem:") }

func killRecoverMidBatch(t *testing.T, listenAddr string) {
	in, plan, cl, models := chaosWorkload(t, 5, 11)

	// Crash-free in-process reference for the checkpoint equality.
	refStore := store.NewMem()
	if _, err := testbed.Run(in, plan, cl, models, testbed.Options{
		Store: refStore,
	}); err != nil {
		t.Fatal(err)
	}

	st := store.NewMem()
	journal := NewMemJournal()
	reg := obs.NewRegistry()
	ring := obs.NewRingSink(8192)
	opts := DistributedOptions{
		TimeScale:         1e-3,
		Store:             st,
		HeartbeatInterval: 5 * time.Millisecond,
		LeaseTimeout:      150 * time.Millisecond,
		Recorder:          obs.NewRecorder(ring),
		Metrics:           reg,
		Journal:           journal,
		SnapshotEvery:     8,
	}
	srv, addr, wait, err := ServeDistributed(listenAddr, in, plan, cl, models, opts)
	if err != nil {
		t.Fatal(err)
	}

	chaos := &faults.NetChaos{Drop: 0.05, Dup: 0.08}
	var wg sync.WaitGroup
	errs := make([]error, cl.Size())
	for g := 0; g < cl.Size(); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = RunExecutorOpts(addr, g, ExecutorOptions{
				Chaos: chaos, ChaosSeed: 42, Metrics: reg, Recorder: obs.NewRecorder(ring),
			})
		}(g)
	}

	// Kill once a quarter of the batch has been accepted.
	awaitPushes(t, srv, in.NumTasks()/4, 20*time.Second)
	if err := srv.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if _, err := wait(); !errors.Is(err, ErrCoordinatorDown) {
		t.Fatalf("wait after kill = %v, want ErrCoordinatorDown", err)
	}

	// Downtime: executors spin on reconnects against a dead address.
	time.Sleep(150 * time.Millisecond)

	srv2, _, wait2, err := RecoverDistributed(addr, journal, RecoverOptions{
		Store:    st,
		Recorder: obs.NewRecorder(ring),
		Metrics:  reg,
	})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer srv2.Close()

	res, err := wait2()
	if err != nil {
		t.Fatalf("recovered wait: %v", err)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("executor %d: %v", g, err)
		}
	}

	if res.Recoveries != 1 || res.Epoch != 2 {
		t.Errorf("recoveries=%d epoch=%d, want 1 and 2", res.Recoveries, res.Epoch)
	}
	if len(res.FailedGPUs) != 0 {
		t.Errorf("fenced GPUs %v during a kill/recover with live executors (reconnect grace too small?)", res.FailedGPUs)
	}
	assertExactlyOnce(t, res, in)

	// Zero duplicate gradient applications: the recovered checkpoints
	// must match a crash-free run bit-for-bit up to float summation
	// order.
	if d := maxParamDiff(finalParams(t, refStore, len(in.Jobs)), finalParams(t, st, len(in.Jobs))); d > 1e-9 {
		t.Errorf("recovered params diverge from crash-free run by %g (> 1e-9)", d)
	}

	// The chaos actually exercised the idempotency machinery, and the
	// recovery announced itself.
	if v := reg.Counter("hare_net_drops_total").Value(); v == 0 {
		t.Error("no injected drops despite netdrop chaos")
	}
	if v := reg.Counter("hare_net_dups_total").Value(); v == 0 {
		t.Error("no injected duplicates despite netdup chaos")
	}
	if v := reg.Counter("hare_coord_recoveries_total").Value(); v != 1 {
		t.Errorf("recovery counter = %g, want 1", v)
	}
	var sawRecovered bool
	for _, e := range ring.Snapshot() {
		if e.Type == obs.EvCoordRecovered {
			sawRecovered = true
			if !strings.Contains(e.Note, "epoch=2") {
				t.Errorf("coord.recovered note = %q, want epoch=2", e.Note)
			}
		}
	}
	if !sawRecovered {
		t.Error("no coord.recovered event emitted")
	}
	// The run completed, so the journal owes nothing.
	if ok, err := journal.HasState(); err != nil || ok {
		t.Errorf("journal retains state after completion (ok=%v err=%v)", ok, err)
	}
}

// TestTwoRecoveriesWithoutSnapshot: a recovery writes no snapshot, so
// a coordinator killed again before its next periodic snapshot leaves
// the first recovery's epoch bump in the WAL tail. The second recovery
// replays it: the run ends in epoch 3 after two recoveries, with every
// task applied exactly once and checkpoints matching a crash-free run.
func TestTwoRecoveriesWithoutSnapshot(t *testing.T) {
	in, plan, cl, models := chaosWorkload(t, 5, 11)
	refStore := store.NewMem()
	if _, err := testbed.Run(in, plan, cl, models, testbed.Options{
		Store: refStore,
	}); err != nil {
		t.Fatal(err)
	}

	st := store.NewMem()
	journal := NewMemJournal()
	srv, addr, wait, err := ServeDistributed("127.0.0.1:0", in, plan, cl, models, DistributedOptions{
		TimeScale:         1e-3,
		Store:             st,
		HeartbeatInterval: 5 * time.Millisecond,
		LeaseTimeout:      150 * time.Millisecond,
		Journal:           journal,
		SnapshotEvery:     1 << 30, // only newDistributed's snapshot
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, cl.Size())
	for g := 0; g < cl.Size(); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = RunExecutorOpts(addr, g, ExecutorOptions{})
		}(g)
	}

	// Kill at a quarter and at half of the batch; recover after each.
	for kill, at := range []int{in.NumTasks() / 4, in.NumTasks() / 2} {
		awaitPushes(t, srv, at, 20*time.Second)
		if err := srv.Kill(); err != nil {
			t.Fatalf("kill %d: %v", kill+1, err)
		}
		if _, err := wait(); !errors.Is(err, ErrCoordinatorDown) {
			t.Fatalf("wait after kill %d = %v, want ErrCoordinatorDown", kill+1, err)
		}
		time.Sleep(100 * time.Millisecond)
		if srv, _, wait, err = RecoverDistributed(addr, journal, RecoverOptions{Store: st}); err != nil {
			t.Fatalf("recovery %d: %v", kill+1, err)
		}
	}
	defer srv.Close()

	// Both epoch bumps sit in the tail behind the one snapshot.
	snap, recs, _, err := journal.read()
	if err != nil {
		t.Fatal(err)
	}
	var recovers []uint64
	for _, rec := range recs {
		if rec.Kind == testbed.RecRecover {
			recovers = append(recovers, rec.LSN)
		}
	}
	if snap.LastLSN != 0 || len(recovers) != 2 {
		t.Errorf("snapshot at LSN %d and recover records at LSNs %v; want the first snapshot and two in the tail", snap.LastLSN, recovers)
	}

	res, err := wait()
	if err != nil {
		t.Fatalf("recovered wait: %v", err)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("executor %d: %v", g, err)
		}
	}
	if res.Recoveries != 2 || res.Epoch != 3 {
		t.Errorf("recoveries=%d epoch=%d, want 2 and 3", res.Recoveries, res.Epoch)
	}
	if len(res.FailedGPUs) != 0 {
		t.Errorf("fenced GPUs %v during two kill/recovers with live executors", res.FailedGPUs)
	}
	assertExactlyOnce(t, res, in)
	if d := maxParamDiff(finalParams(t, refStore, len(in.Jobs)), finalParams(t, st, len(in.Jobs))); d > 1e-9 {
		t.Errorf("twice-recovered params diverge from crash-free run by %g (> 1e-9)", d)
	}
}

// TestRecoverAppendsOneRecord: a recovery's only durable write is its
// recover record — one WAL append, no snapshot — and each recovery
// adds one more epoch.
func TestRecoverAppendsOneRecord(t *testing.T) {
	in, plan, cl, models := chaosWorkload(t, 3, 9)
	journal := NewMemJournal()
	srv, _, _, err := ServeDistributed("127.0.0.1:0", in, plan, cl, models, DistributedOptions{
		TimeScale: 1e-3, Journal: journal, LeaseTimeout: time.Hour, // no executor connects; nothing may be fenced
	})
	if err != nil {
		t.Fatal(err)
	}
	for epoch := uint64(2); epoch <= 3; epoch++ {
		if err := srv.Kill(); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		if srv, _, _, err = RecoverDistributed("127.0.0.1:0", journal, RecoverOptions{Metrics: reg}); err != nil {
			t.Fatalf("recovery into epoch %d: %v", epoch, err)
		}
		appends := reg.Counter("hare_wal_appends_total").Value()
		snaps := reg.Counter("hare_coord_snapshots_total").Value()
		if appends != 1 || snaps != 0 {
			t.Errorf("recovery into epoch %d: %g WAL appends and %g snapshots, want 1 and 0", epoch, appends, snaps)
		}
		srv.co.mu.Lock()
		got, recovered := srv.co.st.Epoch, srv.co.st.Recovered
		srv.co.mu.Unlock()
		if got != epoch || recovered != int(epoch-1) {
			t.Errorf("recovered coordinator in epoch %d after %d recoveries, want %d and %d", got, recovered, epoch, epoch-1)
		}
	}
	srv.Close()
}

// TestRecoverRefusesUndecodableTail: a recovered coordinator appends
// behind the WAL tail, so a tail holding a record it cannot decode — a
// CRC-valid payload of another layout — fails the recovery, naming how
// many records it cannot read and where the good prefix ends. The
// offline inspector still reads the prefix.
func TestRecoverRefusesUndecodableTail(t *testing.T) {
	in, plan, cl, models := chaosWorkload(t, 3, 9)
	dir := t.TempDir()
	j, err := OpenDirJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	co, err := newDistributed(in, plan, cl, models, DistributedOptions{TimeScale: 1e-3, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	co.kill()
	if err := j.append(&testbed.Record{Kind: testbed.RecReport, SimTime: 1, GPU: 0}); err != nil {
		t.Fatal(err)
	}
	bad := appendRecord(nil, &testbed.Record{LSN: 2, Kind: testbed.RecReport, SimTime: 2, GPU: 1})
	bad[0] = layoutVersion - 1
	if err := j.log.Append(bad); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j, err = OpenDirJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if srv, _, _, err := RecoverDistributed("127.0.0.1:0", j, RecoverOptions{}); err == nil {
		srv.Kill()
		t.Fatal("recovery accepted a WAL with an undecodable record")
	} else if !strings.Contains(err.Error(), "1 undecodable WAL record(s) after LSN 1") {
		t.Errorf("recovery error %q does not name 1 undecodable record after LSN 1", err)
	}
	d, err := InspectDir(dir)
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if d.Truncated != 1 || len(d.Entries) != 1 || d.Entries[0].LSN != 1 {
		t.Errorf("inspector read %d entries and %d undecodable, want LSN 1 and 1", len(d.Entries), d.Truncated)
	}
}

// TestFencingSurvivesRecovery: an executor crash fences its GPU before
// the coordinator is killed; after recovery the fence must still hold
// (the WAL replays it), the reconnecting survivor set completes the
// run, and the crashed GPU's duplicate pre-crash state cannot leak
// back in.
func TestFencingSurvivesRecovery(t *testing.T) {
	in, plan, cl, models := chaosWorkload(t, 4, 19)

	refStore := store.NewMem()
	if _, err := testbed.Run(in, plan, cl, models, testbed.Options{
		Store: refStore,
	}); err != nil {
		t.Fatal(err)
	}

	crashAt := plan.Makespan(in) / 4
	st := store.NewMem()
	journal := NewMemJournal()
	srv, addr, wait, err := ServeDistributed("127.0.0.1:0", in, plan, cl, models, DistributedOptions{
		TimeScale:         1e-3,
		Store:             st,
		Faults:            &faults.Plan{Failures: []faults.GPUFailure{{GPU: 1, Time: crashAt, Crash: true}}},
		HeartbeatInterval: 5 * time.Millisecond,
		LeaseTimeout:      60 * time.Millisecond,
		Journal:           journal,
		SnapshotEvery:     8,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, cl.Size())
	for g := 0; g < cl.Size(); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = RunExecutorOpts(addr, g, ExecutorOptions{})
		}(g)
	}

	// Wait until the lease monitor has fenced the crashed GPU, then
	// kill the coordinator.
	fenceDeadline := time.Now().Add(20 * time.Second)
	for {
		srv.co.mu.Lock()
		fenced := srv.co.st.GPUs[1].Failed
		srv.co.mu.Unlock()
		if fenced {
			break
		}
		if time.Now().After(fenceDeadline) {
			t.Fatal("GPU 1 was never fenced")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := srv.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if _, err := wait(); !errors.Is(err, ErrCoordinatorDown) {
		t.Fatalf("wait after kill = %v, want ErrCoordinatorDown", err)
	}
	time.Sleep(100 * time.Millisecond)

	srv2, _, wait2, err := RecoverDistributed(addr, journal, RecoverOptions{Store: st})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer srv2.Close()

	res, err := wait2()
	if err != nil {
		t.Fatalf("recovered wait: %v", err)
	}
	wg.Wait()
	if errs[1] == nil {
		t.Error("crashed executor returned nil")
	}

	if len(res.FailedGPUs) != 1 || res.FailedGPUs[0] != 1 {
		t.Errorf("failures = %v, want exactly GPU 1 (fence must survive recovery)", res.FailedGPUs)
	}
	if len(res.FenceLog) != 1 || res.FenceLog[0].GPU != 1 {
		t.Errorf("fence log %+v, want one entry for GPU 1", res.FenceLog)
	}
	if res.Recoveries != 1 {
		t.Errorf("recoveries = %d, want 1", res.Recoveries)
	}
	assertExactlyOnce(t, res, in)
	if d := maxParamDiff(finalParams(t, refStore, len(in.Jobs)), finalParams(t, st, len(in.Jobs))); d > 1e-9 {
		t.Errorf("recovered params diverge from fault-free run by %g (> 1e-9)", d)
	}
}

// TestLeaseBoundary: a heartbeat aged exactly LeaseTimeout does not
// fence (the predicate is strictly greater-than), one nanosecond past
// it does, and the fence records a positive detection latency.
func TestLeaseBoundary(t *testing.T) {
	in, plan, cl, models := chaosWorkload(t, 2, 5)
	srv, _, _, err := ServeDistributed("127.0.0.1:0", in, plan, cl, models, DistributedOptions{
		TimeScale:    1e-3,
		LeaseTimeout: time.Hour, // the real monitor must not interfere
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	co := srv.co

	now := time.Now()
	co.mu.Lock()
	for g := range co.lease {
		co.lease[g] = now
	}
	co.lease[1] = now.Add(-time.Hour) // exactly LeaseTimeout old
	co.checkLeasesLocked(now, 0)
	atBoundary := co.st.GPUs[1].Failed
	co.lease[1] = now.Add(-time.Hour - time.Nanosecond)
	co.checkLeasesLocked(now, 0)
	pastBoundary := co.st.GPUs[1].Failed
	fenceLog := append([]testbed.FenceInfo(nil), co.st.FenceLog...)
	co.mu.Unlock()

	if atBoundary {
		t.Error("heartbeat aged exactly LeaseTimeout was fenced (predicate must be strict)")
	}
	if !pastBoundary {
		t.Error("heartbeat older than LeaseTimeout was not fenced")
	}
	if len(fenceLog) != 1 || fenceLog[0].GPU != 1 || fenceLog[0].DetectMillis <= 0 {
		t.Errorf("fence log %+v, want one GPU-1 entry with positive detection latency", fenceLog)
	}
}

// TestDuplicateFailureReportsFenceOnce: two error reports for the same
// GPU (a retried report whose first reply was lost) fence it exactly
// once — one fence-log entry, one reschedule.
func TestDuplicateFailureReportsFenceOnce(t *testing.T) {
	in, plan, cl, models := chaosWorkload(t, 3, 9)
	srv, addr, _, err := ServeDistributed("127.0.0.1:0", in, plan, cl, models, DistributedOptions{
		TimeScale:    1e-3,
		LeaseTimeout: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := dialRPCSeeded(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 2; i++ {
		if err := conn.call(mReport,
			&ReportArgs{GPU: 2, Err: "xid 79: GPU has fallen off the bus", Epoch: 1}, &struct{}{}); err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
	}

	srv.co.mu.Lock()
	fences := len(srv.co.st.FenceLog)
	resched := srv.co.st.Reschedule
	fenced := srv.co.st.GPUs[2].Failed
	srv.co.mu.Unlock()
	if !fenced || fences != 1 || resched != 1 {
		t.Errorf("fenced=%v fences=%d reschedules=%d, want true/1/1", fenced, fences, resched)
	}
}

// TestJournalLSNGuard: records folded into a snapshot are not replayed
// again, even when the WAL still holds them (a crash between snapshot
// write and WAL reset leaves exactly that state behind).
func TestJournalLSNGuard(t *testing.T) {
	j := NewMemJournal()
	for i := 1; i <= 3; i++ {
		if err := j.append(&testbed.Record{Kind: testbed.RecPush, SimTime: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := j.writeSnapshot(&coordSnapshot{SimTime: 3, State: testbed.State{Epoch: 1}}); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash-between-snapshot-and-reset: re-append records
	// 1..3's successors, then check which survive a load's guard.
	for i := 4; i <= 5; i++ {
		if err := j.append(&testbed.Record{Kind: testbed.RecPush, SimTime: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	snap, recs, _, err := j.read()
	if err != nil {
		t.Fatal(err)
	}
	if snap.LastLSN != 3 {
		t.Errorf("snapshot LastLSN = %d, want 3", snap.LastLSN)
	}
	replayable := 0
	for _, r := range recs {
		if r.LSN > snap.LastLSN {
			replayable++
		}
	}
	if replayable != 2 {
		t.Errorf("replayable suffix = %d records, want 2", replayable)
	}
	// LSNs keep ascending after a load (no reuse).
	rec := &testbed.Record{Kind: testbed.RecReport}
	if err := j.append(rec); err != nil {
		t.Fatal(err)
	}
	if rec.LSN != 6 {
		t.Errorf("post-load LSN = %d, want 6", rec.LSN)
	}
}

// TestExecutorGoroutineHygiene: a complete distributed run leaves no
// goroutines behind — client loops, heartbeats, crash timers, barrier
// releases and the lease monitor all shut down.
func TestExecutorGoroutineHygiene(t *testing.T) {
	before := runtime.NumGoroutine()
	in, plan, cl, models := chaosWorkload(t, 3, 13)
	srv, addr, wait, err := ServeDistributed("127.0.0.1:0", in, plan, cl, models, DistributedOptions{
		TimeScale: 1e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < cl.Size(); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if err := RunExecutorOpts(addr, g, ExecutorOptions{}); err != nil {
				t.Errorf("executor %d: %v", g, err)
			}
		}(g)
	}
	if _, err := wait(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Close does not wait for the connections' loops, which return as
	// the executors hang up; poll until the count settles back.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, now, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
