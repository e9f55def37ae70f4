package rpcnet

import (
	"fmt"
	"io"

	"hare/internal/testbed"
)

// Offline journal inspection: the read-only backend of `harectl wal`.
// InspectDir decodes a journal directory without mutating it and
// without requiring a consistent snapshot — a half-written or cleared
// journal still yields whatever the WAL holds, because the whole point
// of the inspector is forensics on runs that ended badly.

// WALEntry is one decoded journal record in display form.
type WALEntry struct {
	LSN     uint64
	Kind    string // "push", "fence", "report", "recover", or "kind(N)" for unknown
	SimTime float64
	GPU     int
	Detail  string
}

// SnapshotInfo summarizes the durable snapshot a recovery would load.
type SnapshotInfo struct {
	Epoch     uint64
	Recovered int
	SimTime   float64
	LastLSN   uint64
	NumGPUs   int
	Fenced    int
	TasksDone int
	TasksLeft int
	Queued    int
	Jobs      int
}

// JournalDump is everything InspectDir can read from a journal
// directory.
type JournalDump struct {
	HasSnapshot bool
	Snapshot    SnapshotInfo
	Entries     []WALEntry
	// Truncated counts undecodable WAL payloads dropped at the tail
	// (the good prefix is kept). Recovery refuses such a journal.
	Truncated int
	// Gaps lists LSN-continuity violations: a healthy WAL is a dense
	// ascending run starting just past the snapshot watermark.
	Gaps []string
}

// InspectDir reads the journal rooted at dir (the directory given to
// OpenDirJournal) and returns a tolerant decode of its snapshot and
// WAL, through the same decoder recovery uses.
func InspectDir(dir string) (*JournalDump, error) {
	j, err := OpenDirJournal(dir)
	if err != nil {
		return nil, fmt.Errorf("rpcnet: inspect %s: %w", dir, err)
	}
	defer j.Close()
	snap, recs, truncated, err := j.read()
	if err != nil {
		return nil, fmt.Errorf("rpcnet: inspect %s: %w", dir, err)
	}
	d := &JournalDump{Truncated: truncated}
	if snap != nil {
		d.HasSnapshot = true
		d.Snapshot = summarizeSnapshot(snap)
	}
	for _, rec := range recs {
		d.Entries = append(d.Entries, describeRecord(rec))
	}
	d.Gaps = lsnGaps(d)
	return d, nil
}

func summarizeSnapshot(snap *coordSnapshot) SnapshotInfo {
	st := &snap.State
	info := SnapshotInfo{
		Epoch:     st.Epoch,
		Recovered: st.Recovered,
		SimTime:   snap.SimTime,
		LastLSN:   snap.LastLSN,
		NumGPUs:   len(st.GPUs),
		TasksDone: len(st.Records),
		TasksLeft: st.TasksLeft,
		Jobs:      len(st.Jobs),
		Fenced:    len(st.Fenced()),
	}
	for g, gs := range st.GPUs {
		info.Queued += len(gs.Queue)
		// An unclaimed in-flight task is queued work again after a restart.
		if _, ok := st.Unclaimed(g); ok {
			info.Queued++
		}
	}
	return info
}

func describeRecord(rec *testbed.Record) WALEntry {
	e := WALEntry{LSN: rec.LSN, Kind: rec.KindName(), SimTime: rec.SimTime, GPU: -1}
	switch rec.Kind {
	case testbed.RecPush:
		e.GPU = rec.Push.GPU
		e.Detail = fmt.Sprintf("task %v gpu=%d train=[%.3f,%.3f]",
			rec.Push.Task, rec.Push.GPU, rec.Push.Start, rec.Push.TrainEnd)
	case testbed.RecFence:
		if fp := rec.Fence; fp != nil {
			e.GPU = fp.GPU
			e.Detail = fmt.Sprintf("gpu=%d stranded=%d replanned=%v reason=%s",
				fp.GPU, len(fp.Stranded), fp.HasQueues, fp.Reason)
			if fp.Unrecoverable != "" {
				e.Detail += " UNRECOVERABLE: " + fp.Unrecoverable
			}
		} else {
			e.Detail = "missing fence plan"
		}
	case testbed.RecReport:
		e.GPU = rec.GPU
		if rec.Err == "" {
			e.Detail = fmt.Sprintf("gpu=%d ok", rec.GPU)
		} else {
			e.Detail = fmt.Sprintf("gpu=%d err=%s", rec.GPU, rec.Err)
		}
	case testbed.RecRecover:
		e.Detail = "coordinator recovered: epoch +1"
	}
	return e
}

// lsnGaps cross-checks LSN continuity: entries must ascend densely,
// and when a snapshot exists the first entry should sit just past its
// watermark (entries at or below the watermark are legal — a crash
// between snapshot write and WAL reset leaves them — but worth
// flagging since replay will skip them).
func lsnGaps(d *JournalDump) []string {
	var gaps []string
	var prev uint64
	for i, e := range d.Entries {
		if e.LSN == 0 {
			gaps = append(gaps, fmt.Sprintf("entry %d has LSN 0 (never assigned)", i))
			continue
		}
		if i > 0 && e.LSN != prev+1 {
			gaps = append(gaps, fmt.Sprintf("LSN jumps %d -> %d (missing %d record(s))",
				prev, e.LSN, e.LSN-prev-1))
		}
		prev = e.LSN
	}
	if d.HasSnapshot && len(d.Entries) > 0 {
		first := d.Entries[0].LSN
		switch {
		case first <= d.Snapshot.LastLSN:
			gaps = append(gaps, fmt.Sprintf("WAL head LSN %d at or below snapshot watermark %d (already folded; replay skips it)",
				first, d.Snapshot.LastLSN))
		case first > d.Snapshot.LastLSN+1:
			gaps = append(gaps, fmt.Sprintf("WAL head LSN %d leaves a hole after snapshot watermark %d",
				first, d.Snapshot.LastLSN))
		}
	}
	return gaps
}

// WriteText renders the dump as the human-readable timeline `harectl
// wal` prints.
func (d *JournalDump) WriteText(w io.Writer) {
	if d.HasSnapshot {
		s := d.Snapshot
		fmt.Fprintf(w, "snapshot: epoch=%d recovered=%d sim=%.3fs lsn<=%d\n",
			s.Epoch, s.Recovered, s.SimTime, s.LastLSN)
		fmt.Fprintf(w, "  gpus=%d fenced=%d jobs=%d tasks done=%d left=%d queued=%d\n",
			s.NumGPUs, s.Fenced, s.Jobs, s.TasksDone, s.TasksLeft, s.Queued)
	} else {
		fmt.Fprintln(w, "snapshot: none (cleared or never written)")
	}
	fmt.Fprintf(w, "wal: %d record(s)\n", len(d.Entries))
	for _, e := range d.Entries {
		fmt.Fprintf(w, "  lsn=%-6d t=%9.3fs %-7s %s\n", e.LSN, e.SimTime, e.Kind, e.Detail)
	}
	if d.Truncated > 0 {
		fmt.Fprintf(w, "  (%d undecodable record(s) dropped at the tail)\n", d.Truncated)
	}
	if len(d.Gaps) == 0 {
		fmt.Fprintln(w, "lsn continuity: ok")
	} else {
		fmt.Fprintln(w, "lsn continuity: VIOLATIONS")
		for _, g := range d.Gaps {
			fmt.Fprintf(w, "  %s\n", g)
		}
	}
}
