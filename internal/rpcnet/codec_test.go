package rpcnet

import (
	"bytes"
	"encoding/gob"
	"runtime"
	"strings"
	"testing"

	"hare/internal/core"
	"hare/internal/store"
	"hare/internal/testbed"
)

// TestPushRecordSize: a push of a 32-dimensional gradient — the WAL's
// common record, 256 bytes of it gradient — encodes to at most 330
// bytes, and encoding it into the journal's reused buffer allocates
// nothing.
func TestPushRecordSize(t *testing.T) {
	task := core.TaskRef{Job: 59, Round: 40, Index: 3}
	rec := &testbed.Record{LSN: 1 << 20, Kind: testbed.RecPush, SimTime: 1234.5, Push: testbed.PushReport{
		Task: task, GPU: 3, Start: 1200.25, TrainEnd: 1230.5, Switch: 0.75, Hit: true, Retries: 2,
		Grad: testGrad(task, testbed.ProblemDim),
	}}
	j := NewMemJournal()
	j.buf = appendRecord(j.buf[:0], rec)
	if n := len(j.buf); n > 330 {
		t.Errorf("a %d-dimensional push record takes %d bytes, want at most 330", testbed.ProblemDim, n)
	}
	if n := testing.AllocsPerRun(100, func() { j.buf = appendRecord(j.buf[:0], rec) }); n != 0 {
		t.Errorf("encoding a push record into the reused buffer allocates %v times, want 0", n)
	}
}

// TestOldJournalNamesVersion: a journal whose snapshot an older build
// wrote (gob, before the binary layout) fails recovery and inspection
// with an error that names the layout version, instead of being read as
// a corrupt payload.
func TestOldJournalNamesVersion(t *testing.T) {
	in, plan, cl, models := chaosWorkload(t, 3, 9)
	co, err := newDistributed(in, plan, cl, models, DistributedOptions{TimeScale: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	snap := co.snapHeader
	snap.State = *co.st
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	snaps, err := store.NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := snaps.Save(snapshotKey, old.Bytes()); err != nil {
		t.Fatal(err)
	}
	j, err := OpenDirJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, _, _, err := RecoverDistributed("127.0.0.1:0", j, RecoverOptions{}); err == nil || !strings.Contains(err.Error(), "layout version 0x82") {
		t.Errorf("recovering a gob snapshot = %v, want an error naming layout version 0x82", err)
	}
	if _, err := InspectDir(dir); err == nil || !strings.Contains(err.Error(), "layout version 0x82") {
		t.Errorf("inspecting a gob snapshot = %v, want an error naming layout version 0x82", err)
	}
}

// allocated runs f once on one P and returns the heap objects and bytes
// it allocated.
func allocated(f func()) (objects, size uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// FuzzJournalDecode feeds arbitrary bytes to both journal decoders.
// Whatever the input, each returns a value or an error, never a panic;
// it allocates at most one object per input byte and 32 bytes per input
// byte (a TaskRef or a slice header outweighs its wire bytes), plus
// small constants, so a corrupt count costs nothing; and a payload it
// accepts re-encodes to the same bytes. The seeds are one record of
// every kind (the scripted batch journals no recovery, so that one is
// built here) and the first and last snapshots of TestReplayMatchesLive's
// scripted batch, each also cut in half and short by one byte.
func FuzzJournalDecode(f *testing.F) {
	var run *scripted
	runScript(f, 3, true, func(s *scripted, _ string, _ *testbed.Record) { run = s })
	firstOf := map[string][]byte{}
	for _, p := range run.log.recs {
		rec, err := decodeRecord(p)
		if err != nil {
			f.Fatal(err)
		}
		what := rec.KindName()
		if rec.Kind == testbed.RecReport && rec.Err != "" {
			what = "error report"
		}
		if firstOf[what] == nil {
			firstOf[what] = p
		}
	}
	seeds := [][]byte{
		firstOf["push"], firstOf["fence"], firstOf["report"], firstOf["error report"],
		appendRecord(nil, &testbed.Record{LSN: 7, Kind: testbed.RecFence}),
		appendRecord(nil, &testbed.Record{LSN: 8, Kind: 77}),
		appendRecord(nil, &testbed.Record{LSN: 9, Kind: testbed.RecRecover, SimTime: 2.5}),
		run.snaps.snaps[0], run.snaps.snaps[len(run.snaps.snaps)-1],
	}
	for _, seed := range seeds {
		if seed == nil {
			f.Fatal("the scripted batch journaled no record of some kind")
		}
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:len(seed)-1])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		budget := func(what string, objects, size uint64) {
			t.Helper()
			if n := uint64(len(data)); objects > n+32 || size > 32*n+4096 {
				t.Fatalf("decoding %d bytes as a %s allocated %d objects, %d bytes", n, what, objects, size)
			}
		}
		var rec *testbed.Record
		var err error
		objects, size := allocated(func() { rec, err = decodeRecord(data) })
		budget("record", objects, size)
		if err == nil && !bytes.Equal(appendRecord(nil, rec), data) {
			t.Fatalf("record %+v decoded from %x re-encodes to other bytes", rec, data)
		}
		var snap *coordSnapshot
		objects, size = allocated(func() { snap, err = decodeSnapshot(data) })
		budget("snapshot", objects, size)
		if err == nil && !bytes.Equal(appendSnapshot(nil, snap), data) {
			t.Fatalf("snapshot decoded from %x re-encodes to other bytes", data)
		}
	})
}
