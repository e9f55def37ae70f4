package rpcnet

import (
	"fmt"
	"path/filepath"
	"sync"

	"hare/internal/core"
	"hare/internal/obs"
	"hare/internal/store"
	"hare/internal/switching"
	"hare/internal/testbed"
)

// The coordinator's durability layer: a write-ahead log of state
// transitions (gradient pushes, fences, executor reports, recoveries)
// over a periodic full-state snapshot, both persisted through
// internal/store primitives. Recovery loads the snapshot, replays the
// WAL suffix with LSN greater than the snapshot's LastLSN, appends its
// own epoch bump behind it, and resumes the batch (recovery.go). The
// LSN guard is what makes the pair crash-safe at
// every instant: writeSnapshot persists the snapshot *before* resetting
// the log, so a crash between the two replays a WAL whose prefix is
// already in the snapshot — and that prefix is skipped by LSN, never
// double-applied. Records and snapshots share one binary layout
// (codec.go); each record is one Log.Append.

// snapshotKey is the store key of the coordinator snapshot.
const snapshotKey = "coord/snapshot"

// snapOpts are the run options a recovered coordinator must agree on
// with the original (Store/Recorder/Metrics are process-local and
// re-supplied via RecoverOptions; the fault plan travels as FaultSpec).
type snapOpts struct {
	TimeScale       float64
	Scheme          switching.Scheme
	Speculative     bool
	HeartbeatMillis int64
	LeaseMillis     int64
	SnapshotEvery   int
}

// coordSnapshot is what a recovery loads: a header that never changes
// during a run (the problem, the fleet, the options) and the
// coordinator state itself, parameter servers included.
type coordSnapshot struct {
	// SimTime is the simulated time the snapshot was taken; the
	// recovered clock resumes at the max of this and the replayed WAL
	// records' times.
	SimTime float64
	// FaultSpec re-derives the fault plan (faults.Parse round-trip).
	FaultSpec string
	Opts      snapOpts
	// Instance is the scheduling problem; GPUTypeNames (GPU → cluster
	// type) and ModelNames (job → model zoo entry) are what executors
	// resolve locally after their Config handshake.
	Instance     *core.Instance
	GPUTypeNames []string
	ModelNames   []string
	// LastLSN is the newest WAL record already folded into State;
	// replay skips records at or below it.
	LastLSN uint64
	State   testbed.State
}

// Journal couples a snapshot store with a write-ahead log. A Journal
// backed by a directory (OpenDirJournal) survives process death; a
// memory journal (NewMemJournal) supports in-process kill/recover
// tests and the chaos harness.
type Journal struct {
	mu    sync.Mutex
	snaps store.Store
	log   store.Log
	lsn   uint64
	// buf holds the encoding of the record or snapshot being written;
	// the log and the store copy it, so it is reused.
	buf []byte
}

// NewJournal couples an arbitrary snapshot store and log.
func NewJournal(snaps store.Store, log store.Log) *Journal {
	return &Journal{snaps: snaps, log: log}
}

// NewMemJournal builds an in-memory journal (state survives a
// simulated coordinator kill, not a real process death).
func NewMemJournal() *Journal {
	return NewJournal(store.NewMem(), store.NewMemLog())
}

// OpenDirJournal opens (or creates) a durable journal rooted at dir:
// snapshots as files in dir, the WAL at dir/wal.log. Both fsync on
// every write.
func OpenDirJournal(dir string) (*Journal, error) {
	snaps, err := store.NewDir(dir)
	if err != nil {
		return nil, err
	}
	log, err := store.OpenDirLog(filepath.Join(dir, "wal.log"))
	if err != nil {
		return nil, err
	}
	return NewJournal(snaps, log), nil
}

// HasState reports whether the journal holds a snapshot to recover
// from. A cleared journal (empty snapshot) counts as no state.
func (j *Journal) HasState() (bool, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	raw, err := j.snapshotBytes()
	return len(raw) > 0, err
}

// snapshotBytes loads the stored snapshot; empty when none was written
// or the journal was cleared. Caller holds j.mu.
func (j *Journal) snapshotBytes() ([]byte, error) {
	if !j.snaps.Exists(snapshotKey) {
		return nil, nil
	}
	return j.snaps.Load(snapshotKey)
}

// LSN returns the newest assigned log sequence number — the journal
// watermark rpc.server events carry as trace context. Safe on a nil
// journal (0: no durability attached).
func (j *Journal) LSN() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lsn
}

// append assigns the next LSN and writes one record through to the
// log.
func (j *Journal) append(rec *testbed.Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.lsn++
	rec.LSN = j.lsn
	j.buf = appendRecord(j.buf[:0], rec)
	return j.log.Append(j.buf)
}

// writeSnapshot persists a snapshot and then resets the WAL, returning
// the encoded snapshot size. snap's LastLSN is stamped with the newest
// appended record so a crash between the two steps cannot double-apply
// the log.
func (j *Journal) writeSnapshot(snap *coordSnapshot) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	snap.LastLSN = j.lsn
	j.buf = appendSnapshot(j.buf[:0], snap)
	if err := j.snaps.Save(snapshotKey, j.buf); err != nil {
		return 0, fmt.Errorf("journal: save snapshot: %w", err)
	}
	return len(j.buf), j.log.Reset()
}

// read decodes whatever the journal holds: the snapshot (nil when none
// was written, or the journal was cleared), every decodable WAL record,
// and the number of payloads dropped behind the first undecodable one.
// It resumes the LSN counter past the newest of either. A torn or
// corrupt log tail has already been truncated by the log layer; a
// record that fails to decode ends the replay at the last good record.
// Recovery and the offline inspector share this one decoder.
func (j *Journal) read() (snap *coordSnapshot, recs []*testbed.Record, truncated int, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	raw, err := j.snapshotBytes()
	if err != nil {
		return nil, nil, 0, err
	}
	if len(raw) > 0 {
		if snap, err = decodeSnapshot(raw); err != nil {
			return nil, nil, 0, fmt.Errorf("journal: decode snapshot: %w", err)
		}
		j.lsn = max(j.lsn, snap.LastLSN)
	}
	payloads, err := j.log.Records()
	if err != nil {
		return nil, nil, 0, err
	}
	for i, p := range payloads {
		rec, err := decodeRecord(p)
		if err != nil {
			truncated = len(payloads) - i // torn mid-stream; keep the good prefix
			break
		}
		recs = append(recs, rec)
		j.lsn = max(j.lsn, rec.LSN)
	}
	return snap, recs, truncated, nil
}

// snapshotLocked persists the coordinator's full state through the
// journal and resets the push-since-snapshot counter. Because every
// state transition (push accept, fence, report, recover) happens
// entirely under c.mu, the state is encoded in place, transactionally
// consistent with the WAL's LSN watermark by construction. A
// persistence failure aborts the run — continuing without durability
// would break the recovery contract silently. Caller holds c.mu.
func (c *coordinator) snapshotLocked() {
	snap := c.snapHeader
	snap.SimTime = c.clock.Now()
	snap.State = *c.st
	size, err := c.journal.writeSnapshot(&snap)
	if err != nil {
		c.failLocked(fmt.Errorf("rpcnet: write snapshot: %w", err))
		return
	}
	c.pushesSinceSnap = 0
	c.cSnapshots.Inc()
	if c.opts.Recorder.Enabled() {
		c.opts.Recorder.Emit(obs.Event{
			Type: obs.EvWALSnapshot, Time: snap.SimTime, GPU: -1, Job: -1,
			Epoch: c.st.Epoch, LSN: snap.LastLSN, Bytes: int64(size),
		})
	}
}

// newSnapHeader assembles the part of a snapshot that is fixed for the
// whole run.
func newSnapHeader(in *core.Instance, gpuTypes, modelNames []string, opts DistributedOptions) coordSnapshot {
	return coordSnapshot{
		FaultSpec: opts.Faults.String(),
		Opts: snapOpts{
			TimeScale:       opts.TimeScale,
			Scheme:          opts.Scheme,
			Speculative:     opts.Speculative,
			HeartbeatMillis: opts.HeartbeatInterval.Milliseconds(),
			LeaseMillis:     opts.LeaseTimeout.Milliseconds(),
			SnapshotEvery:   opts.SnapshotEvery,
		},
		Instance:     in,
		GPUTypeNames: gpuTypes,
		ModelNames:   modelNames,
	}
}

// Clear discards all durable state — called after the run completes,
// when the batch's results live in the checkpoint store and the WAL
// has nothing left to protect.
func (j *Journal) Clear() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.snaps.Save(snapshotKey, nil); err != nil {
		return err
	}
	return j.log.Reset()
}

// Close releases the underlying log (no-op for memory journals).
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}
