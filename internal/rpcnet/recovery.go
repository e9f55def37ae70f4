package rpcnet

import (
	"fmt"
	"time"

	"hare/internal/cluster"
	"hare/internal/faults"
	"hare/internal/model"
	"hare/internal/obs"
	"hare/internal/store"
	"hare/internal/testbed"
)

// Coordinator crash recovery. RecoverDistributed rebuilds a
// coordinator from its journal — snapshot plus WAL suffix — and serves
// it again under a bumped epoch:
//
//  1. Decode the snapshot: its header carries the instance, the GPU
//     type and model names and the options; its State is the
//     coordinator state itself, shape-checked against the instance.
//  2. Re-anchor the shared simulated clock: the new wall epoch is
//     chosen so "simulated now" continues from the recovered
//     high-water mark (max of the snapshot time and every replayed WAL
//     record's time) instead of rewinding — executors and the
//     coordinator re-agree on time via the Config re-handshake.
//  3. Bind the state to its instance and checkpoint store, and re-save
//     every job's checkpoints from the parameter-server state it holds
//     (the store may have died with the old process).
//  4. Fold the WAL suffix (records with LSN beyond the snapshot's
//     watermark) into the state with testbed.State.Apply, the function
//     the live handlers commit through: a record they would have
//     refused fails the recovery with its LSN. Journaling and events
//     belong to the handlers, so replay has neither.
//  5. Commit a recover record through the live transition path
//     (commitLocked: WAL append, then Apply's Epoch+1) and serve under
//     the new epoch. No snapshot is written first: the record lands
//     after the replayed tail, and a later recovery replays it like any
//     other. Executors still holding the old epoch are rejected with a
//     "stale coordinator epoch" error, re-handshake, and resume; a
//     pre-crash push retried against the new incarnation hits the
//     recovered dedup set and is absorbed idempotently.
//
// Fenced GPUs stay fenced (fencing survives recovery); live GPUs get a
// reconnect grace period before the lease monitor may fence them,
// since their leases necessarily went stale while the coordinator was
// down.

// RecoverOptions supplies the process-local pieces a recovered
// coordinator cannot load from its journal.
type RecoverOptions struct {
	// Store is the checkpoint store (must be the durable one the dead
	// coordinator used, or a fresh one — the recovery re-saves the
	// latest checkpoint of every job either way).
	Store store.Store
	// ReconnectGrace delays lease-expiry fencing after recovery so
	// executors have time to re-handshake. Defaults to 3x the
	// snapshot's lease timeout.
	ReconnectGrace time.Duration
	// Recorder receives post-recovery events (starting with
	// coord.recovered); Metrics accumulates counters. Both optional.
	Recorder *obs.Recorder
	Metrics  *obs.Registry
}

// RecoverDistributed resumes a crashed coordinator from its journal
// and serves it on addr (normally the dead coordinator's address, so
// reconnecting executors find it). It returns the same triple as
// ServeDistributed.
func RecoverDistributed(addr string, j *Journal, ropts RecoverOptions) (*Server, string, func() (*DistributedResult, error), error) {
	co, rp, err := rebuildCoordinator(j, ropts)
	if err != nil {
		return nil, "", nil, fmt.Errorf("rpcnet: recover: %w", err)
	}

	// New incarnation: a reconnect grace before the lease monitor may
	// fence anyone (live executors' leases all went stale while the
	// coordinator was down), and a journaled epoch bump.
	grace := ropts.ReconnectGrace
	if grace <= 0 {
		grace = 3 * co.opts.LeaseTimeout
	}
	leaseBase := time.Now().Add(grace - co.opts.LeaseTimeout)
	for g := range co.lease {
		co.lease[g] = leaseBase
	}

	// The epoch bump is durable before serving, so a crash from here on
	// recovers into a later epoch still: the next recovery replays this
	// record over the same snapshot and tail.
	co.mu.Lock()
	_, err = co.commitLocked(&testbed.Record{Kind: testbed.RecRecover, SimTime: co.clock.Now()}, -1)
	co.mu.Unlock()
	if err != nil {
		return nil, "", nil, err
	}

	ropts.Metrics.Counter("hare_coord_recoveries_total").Inc()
	if ropts.Recorder.Enabled() {
		ropts.Recorder.Emit(obs.Event{
			Type: obs.EvRecoveryReplay, Time: rp.watermark, GPU: -1, Job: -1,
			Epoch: co.st.Epoch, LSN: j.LSN(),
			Note: fmt.Sprintf("snap=%d replayed=%d", rp.snapLSN, rp.replayed),
		})
		ropts.Recorder.Emit(obs.Event{
			Type: obs.EvCoordRecovered, Time: co.clock.Now(), GPU: -1, Job: -1,
			Note: fmt.Sprintf("epoch=%d pushes=%d fenced=%d", co.st.Epoch, len(co.st.Records), len(co.st.Fenced())),
		})
	}
	lis, err := listen(addr)
	if err != nil {
		return nil, "", nil, fmt.Errorf("rpcnet: listen: %w", err)
	}
	return co.serve(lis)
}

// replayInfo describes one journal replay for the recovery events.
type replayInfo struct {
	snapLSN   uint64
	replayed  int
	watermark float64
}

// rebuildCoordinator reconstructs, from the journal alone, the
// coordinator the journal's writer had when it last appended: same
// state, parameter servers included, same epoch. It reads the journal but
// never writes it. It refuses a WAL with undecodable records: the
// recovered coordinator appends behind the tail, and a record written
// after an undecodable one would be invisible to the next recovery.
func rebuildCoordinator(j *Journal, ropts RecoverOptions) (*coordinator, replayInfo, error) {
	if j == nil {
		return nil, replayInfo{}, fmt.Errorf("nil journal")
	}
	snap, recs, truncated, err := j.read()
	if err != nil {
		return nil, replayInfo{}, err
	}
	if snap == nil {
		return nil, replayInfo{}, fmt.Errorf("journal: no coordinator snapshot to recover from (never written, or the journal was cleared)")
	}
	if truncated > 0 {
		last := snap.LastLSN
		if len(recs) > 0 {
			last = recs[len(recs)-1].LSN
		}
		return nil, replayInfo{}, fmt.Errorf("journal: %d undecodable WAL record(s) after LSN %d (inspect with harectl wal)", truncated, last)
	}
	plan, err := faults.Parse(snap.FaultSpec)
	if err != nil {
		return nil, replayInfo{}, fmt.Errorf("fault spec %q: %w", snap.FaultSpec, err)
	}
	opts := DistributedOptions{
		TimeScale:         snap.Opts.TimeScale,
		Scheme:            snap.Opts.Scheme,
		Speculative:       snap.Opts.Speculative,
		Store:             ropts.Store,
		Faults:            plan,
		HeartbeatInterval: time.Duration(snap.Opts.HeartbeatMillis) * time.Millisecond,
		LeaseTimeout:      time.Duration(snap.Opts.LeaseMillis) * time.Millisecond,
		Recorder:          ropts.Recorder,
		Metrics:           ropts.Metrics,
		Journal:           j,
		SnapshotEvery:     snap.Opts.SnapshotEvery,
	}.withDefaults()
	in := snap.Instance
	if in == nil {
		return nil, replayInfo{}, fmt.Errorf("snapshot lacks its instance")
	}
	if err := in.Validate(); err != nil {
		return nil, replayInfo{}, fmt.Errorf("snapshot instance: %w", err)
	}
	if len(snap.GPUTypeNames) != in.NumGPUs || len(snap.ModelNames) != len(in.Jobs) {
		return nil, replayInfo{}, fmt.Errorf("snapshot names %d GPU types and %d models for a %d-GPU, %d-job instance",
			len(snap.GPUTypeNames), len(snap.ModelNames), in.NumGPUs, len(in.Jobs))
	}
	// Fail here, not in every executor's handshake, when the snapshot
	// names hardware or models this build does not know.
	for _, name := range snap.GPUTypeNames {
		if _, err := cluster.TypeByName(name); err != nil {
			return nil, replayInfo{}, err
		}
	}
	for _, name := range snap.ModelNames {
		if _, err := model.ByName(name); err != nil {
			return nil, replayInfo{}, err
		}
	}

	// Simulated-time continuity: resume at the high-water mark of
	// everything durably accepted, so completions measured after
	// recovery are monotone with the pre-crash ones.
	rp := replayInfo{snapLSN: snap.LastLSN, watermark: snap.SimTime}
	for _, rec := range recs {
		if rec.LSN > snap.LastLSN && rec.SimTime > rp.watermark {
			rp.watermark = rec.SimTime
		}
	}
	wallBack := time.Duration(rp.watermark * opts.TimeScale * float64(time.Second))
	clock, err := testbed.NewClockAt(time.Now().Add(-wallBack), opts.TimeScale)
	if err != nil {
		return nil, replayInfo{}, fmt.Errorf("snapshot: %w", err)
	}

	st := &snap.State
	if err := st.Bind(in, opts.Store); err != nil {
		return nil, replayInfo{}, err
	}
	if err := st.SaveCheckpoints(); err != nil {
		return nil, replayInfo{}, err
	}

	// WAL suffix: every accepted transition after the snapshot. Its
	// pushes count toward the next periodic snapshot, as they did for
	// the writer: recovery writes none, so the tail stays in the log.
	pushes := 0
	for _, rec := range recs {
		if rec.LSN <= snap.LastLSN {
			continue
		}
		fx, err := st.Apply(rec)
		if err == nil {
			err = fx.Fatal
		}
		if err != nil {
			return nil, replayInfo{}, fmt.Errorf("replay %s record LSN %d: %w", rec.KindName(), rec.LSN, err)
		}
		rp.replayed++
		if rec.Kind == testbed.RecPush {
			pushes++
		}
	}
	co := newCoordinator(in, st, snap.GPUTypeNames, snap.ModelNames, opts, clock)
	co.pushesSinceSnap = pushes
	return co, rp, nil
}
