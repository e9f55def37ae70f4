package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"hare/internal/cluster"
	"hare/internal/rpcnet"
	"hare/internal/store"
)

// distRecover uses the WAL/snapshot layer the other way round — reads
// beside dist-durable's writes: one op copies a crashed journal
// directory, opens it and recovers a coordinator from it until it
// serves, then kills it. Fewer or larger snapshots, or a record format
// that speeds up dist-durable but lengthens the tail replay or the
// snapshot decode, show up here as a loss.
//
// The crashed journal is built in set-up through the real stack
// (ServeDistributed + four executors on a ≈600-task batch, default
// SnapshotEvery): a gate in the WAL freezes the coordinator right after
// its killAt-th durable append, the directory is copied — exactly what
// a process killed at that instant leaves on disk — and then the
// coordinator is killed, recovered on the same address and the batch
// completes, which is verified exactly-once against the reference
// checkpoints.
type distRecover struct {
	e   *env
	cl  *cluster.Cluster
	b   *batch  // the batch that is crashed and recovered
	sum float64 // wjct_sim: b's and the rest of its pool's

	image    string // the crashed journal directory ops recover from
	restored int    // tasks an op restores: snapshot Done + replayed pushes
	tail     int    // WAL records past the snapshot in image
	snapKB   float64
	outages  []float64 // kill → first LSN advance, per full cycle
	base     int       // goroutines before the first op
}

// The coordinator is frozen and killed once about killFraction of the
// batch's tasks are durably appended — exactly killTail records past a
// periodic snapshot, so every seed recovers a tail of the same length.
const (
	killFraction = 0.9
	killTail     = rpcnet.DefaultSnapshotEvery / 2
)

// killPoint is the number of WAL appends after which the batch is
// killed: the last point at or below killFraction of the tasks that
// lies killTail records past a multiple of the snapshot period.
func killPoint(tasks int) int {
	every := rpcnet.DefaultSnapshotEvery
	return (int(killFraction*float64(tasks))-killTail)/every*every + killTail
}

func (w *distRecover) setup(e *env) error {
	w.e, w.cl = e, distFleet()
	var gc genClocks
	pool, err := buildBatches(e.seed, e.sz.recoverPool, e.sz.recoverTasks, e.sz.batchRounds, w.cl, &gc)
	if err != nil {
		return err
	}
	w.b = pool[0]
	for _, b := range pool {
		w.sum += b.wjct
	}
	if w.image, err = w.killCycle(rpcnet.DefaultSnapshotEvery); err != nil {
		return err
	}
	dump, err := rpcnet.InspectDir(w.image)
	if err != nil {
		return err
	}
	if !dump.HasSnapshot || len(dump.Gaps) > 0 || dump.Truncated > 0 {
		return fmt.Errorf("crashed journal is not clean: snapshot=%v gaps=%v truncated=%d", dump.HasSnapshot, dump.Gaps, dump.Truncated)
	}
	w.tail = len(dump.Entries)
	w.restored = dump.Snapshot.TasksDone + w.tail
	if info, err := os.Stat(filepath.Join(w.image, "coord__snapshot")); err == nil {
		w.snapKB = float64(info.Size()) / 1024
	}
	return nil
}

// killCycle runs one full kill→recover→complete cycle of the batch and
// returns the crashed-journal image taken at the kill. It counts as one
// attempted op of the run.
func (w *distRecover) killCycle(snapshotEvery int) (image string, err error) {
	w.e.extraAttempted++
	defer func() {
		if err != nil {
			w.e.extraFailed++
		}
	}()
	live, err := w.e.freshDir("live")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(live)
	if image, err = w.e.freshDir("image"); err != nil {
		return "", err
	}
	snaps, err := store.NewDir(live)
	if err != nil {
		return "", err
	}
	log, err := store.OpenDirLog(filepath.Join(live, "wal.log"))
	if err != nil {
		return "", err
	}
	killAt := killPoint(w.b.tasks)
	gate := newGateLog(log, killAt)
	journal := rpcnet.NewJournal(snaps, gate)
	ckpt := store.NewMem()

	srv, bound, wait, err := rpcnet.ServeDistributed("127.0.0.1:0", w.b.in, w.b.plan, w.cl, w.b.models, rpcnet.DistributedOptions{
		TimeScale: distTimeScale, Journal: journal, Store: ckpt, SnapshotEvery: snapshotEvery,
	})
	if err != nil {
		journal.Close()
		return "", err
	}
	var execs sync.WaitGroup
	for g := 0; g < w.cl.Size(); g++ {
		execs.Add(1)
		go func(g int) {
			defer execs.Done()
			// Executors ride out the kill by re-handshaking; a real
			// failure surfaces through the recovered coordinator's wait.
			_ = rpcnet.RunExecutorOpts(bound, g, rpcnet.ExecutorOptions{})
		}(g)
	}
	type outcome struct {
		res *rpcnet.DistributedResult
		err error
	}
	first := make(chan outcome, 1)
	go func() {
		res, err := wait()
		first <- outcome{res, err}
	}()

	// Freeze at the killAt-th append, image the directory, then kill.
	select {
	case <-gate.reached:
	case o := <-first:
		close(gate.release)
		srv.Kill()
		execs.Wait()
		journal.Close()
		return "", fmt.Errorf("batch ended before WAL append %d: %v", killAt, o.err)
	}
	err = copyDir(live, image)
	// The kill queues on the coordinator lock the parked append holds;
	// sync.Mutex hands the lock to a waiter of more than 1 ms, so it
	// lands a few appends after the gate opens, long before the
	// remaining tenth of the batch is through.
	killed := now()
	close(gate.release)
	srv.Kill()
	o := <-first
	journal.Close()
	if err != nil {
		execs.Wait()
		return "", err
	}
	if !errors.Is(o.err, rpcnet.ErrCoordinatorDown) {
		execs.Wait()
		return "", fmt.Errorf("killed coordinator returned %v, want %v", o.err, rpcnet.ErrCoordinatorDown)
	}

	// Restart: reopen the journal as a new process would and recover on
	// the address the executors keep dialling.
	reopened, err := rpcnet.OpenDirJournal(live)
	if err != nil {
		execs.Wait()
		return "", err
	}
	defer reopened.Close()
	srv2, _, wait2, err := rpcnet.RecoverDistributed(bound, reopened, rpcnet.RecoverOptions{Store: ckpt})
	if err != nil {
		execs.Wait()
		return "", err
	}
	// The outage ends when the recovered coordinator accepts its first
	// new transition; that includes the executors' seeded reconnect
	// back-off.
	recoveredAt := reopened.LSN()
	stop := make(chan struct{})
	outageCh := make(chan float64, 1)
	go func() {
		for reopened.LSN() == recoveredAt {
			select {
			case <-stop:
				outageCh <- 0
				return
			default:
			}
			//lint:allow walltime polling the journal watermark of a live recovery
			time.Sleep(200 * time.Microsecond)
		}
		outageCh <- now() - killed
	}()
	res, err := wait2()
	close(stop)
	outage := <-outageCh
	execs.Wait()
	fleet := srv2.FleetSize()
	srv2.Close()
	if err != nil {
		return "", fmt.Errorf("recovered batch: %w", err)
	}
	if fleet != w.cl.Size() || res.Recoveries != 1 {
		return "", fmt.Errorf("recovered fleet %d / recoveries %d, want %d / 1", fleet, res.Recoveries, w.cl.Size())
	}
	if err := checkExactlyOnce(w.b.in, res.Trace); err != nil {
		return "", err
	}
	if err := checkParams(ckpt, w.b.ref); err != nil {
		return "", err
	}
	w.outages = append(w.outages, outage)
	return image, nil
}

// recoverOnce is the measured operation on a given image.
func (w *distRecover) recoverOnce(image string, tr *tracer) (func() error, error) {
	dst, err := w.e.freshDir("rec")
	if err != nil {
		return nil, err
	}
	id := tr.begin("bench.copy_image")
	err = copyDir(image, dst)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("rpcnet.recover.open")
	journal, err := rpcnet.OpenDirJournal(dst)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("rpcnet.recover.call")
	srv, _, _, err := rpcnet.RecoverDistributed("127.0.0.1:0", journal, rpcnet.RecoverOptions{})
	tr.end(id)
	if err != nil {
		journal.Close()
		return nil, err
	}
	fleet := srv.FleetSize()
	id = tr.begin("rpcnet.recover.kill")
	err = srv.Kill()
	if cerr := journal.Close(); err == nil {
		err = cerr
	}
	tr.end(id)
	if err != nil {
		return nil, err
	}
	return func() error {
		if fleet != w.cl.Size() {
			return fmt.Errorf("recovered coordinator serves %d GPUs, want %d", fleet, w.cl.Size())
		}
		if _, err := settleGoroutines(w.base); err != nil {
			return err
		}
		return os.RemoveAll(dst)
	}, nil
}

func (w *distRecover) op(i int, tr *tracer) (int, func() error, error) {
	if w.base == 0 {
		w.base = runtime.NumGoroutine()
	}
	check, err := w.recoverOnce(w.image, tr)
	return w.restored, check, err
}

func (w *distRecover) cycle() int    { return 1 }
func (w *distRecover) session() int  { return 1 }
func (w *distRecover) wjct() float64 { return w.sum }
func (w *distRecover) close() error  { return nil }

func (w *distRecover) layers(tr *tracer, e *env, m metricSet) error {
	call := tr.stats("rpcnet.recover.call")
	m.set("rpcnet.recover.open_s", median(tr.stats("rpcnet.recover.open").PerOp))
	m.set("rpcnet.recover.call_s", median(call.PerOp))
	m.set("rpcnet.recover.snapshot_kb", w.snapKB)
	m.set("rpcnet.recover.tail_records", float64(w.tail))

	var inspect []float64
	for r := 0; r < e.sz.probeReps; r++ {
		var err error
		inspect = append(inspect, seconds(func() { _, err = rpcnet.InspectDir(w.image) }))
		if err != nil {
			return err
		}
	}
	m.set("rpcnet.inspect_s", median(inspect))

	// A second crashed journal without periodic snapshots: a tiny
	// snapshot and the whole batch in the tail.
	tailImage, err := w.killCycle(1 << 30)
	if err != nil {
		return err
	}
	dump, err := rpcnet.InspectDir(tailImage)
	if err != nil {
		return err
	}
	probe := newTracer()
	for r := 0; r < e.sz.probeReps; r++ {
		root := probe.beginOp(r)
		check, err := w.recoverOnce(tailImage, probe)
		probe.end(root)
		if err == nil {
			err = check()
		}
		if err != nil {
			return err
		}
	}
	m.set("rpcnet.recover_tail.us_per_record",
		median(probe.stats("rpcnet.recover.call").PerOp)*1e6/float64(max(len(dump.Entries), 1)))

	// A third full cycle (set-up's and the tail image's were the first
	// two) for the outage median.
	if _, err := w.killCycle(rpcnet.DefaultSnapshotEvery); err != nil {
		return err
	}
	m.set("rpcnet.outage_s", median(w.outages))
	return nil
}

// copyDir copies the regular files of src into the existing directory
// dst (a journal directory is flat).
func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
