package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func testLogRoundTrip(t *testing.T, l Log) {
	t.Helper()
	want := [][]byte{[]byte("alpha"), {}, []byte("gamma-longer-record")}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	got, err := l.Records()
	if err != nil {
		t.Fatalf("Records: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	if err := l.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	got, err = l.Records()
	if err != nil {
		t.Fatalf("Records after Reset: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d records after Reset, want 0", len(got))
	}
}

func TestMemLogRoundTrip(t *testing.T) { testLogRoundTrip(t, NewMemLog()) }

func TestDirLogRoundTrip(t *testing.T) {
	l, err := OpenDirLog(filepath.Join(t.TempDir(), "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	testLogRoundTrip(t, l)
}

func TestDirLogSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenDirLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenDirLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs, err := l2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("got %d records after reopen, want 5", len(recs))
	}
	if string(recs[4]) != "rec-4" {
		t.Fatalf("last record = %q, want rec-4", recs[4])
	}
	// Appends continue after the existing tail.
	if err := l2.Append([]byte("rec-5")); err != nil {
		t.Fatal(err)
	}
	recs, err = l2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 || string(recs[5]) != "rec-5" {
		t.Fatalf("after reopen+append: got %d records (last %q)", len(recs), recs[len(recs)-1])
	}
}

func TestDirLogTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenDirLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("good-one")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("good-two")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a header that promises more payload
	// than was written.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], 100)
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE([]byte("x")))
	if _, err := f.Write(append(hdr[:], []byte("torn")...)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := OpenDirLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs, err := l2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records after torn tail, want 2", len(recs))
	}
	// New appends land where the torn tail was cut.
	if err := l2.Append([]byte("after-crash")); err != nil {
		t.Fatal(err)
	}
	recs, _ = l2.Records()
	if len(recs) != 3 || string(recs[2]) != "after-crash" {
		t.Fatalf("append after truncation: got %d records (last %q)", len(recs), recs[len(recs)-1])
	}
}

func TestDirLogTruncatesCorruptRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenDirLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("intact")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("will-be-corrupted")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Flip a payload byte of the second record on disk.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenDirLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs, err := l2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0]) != "intact" {
		t.Fatalf("got %d records after corruption, want 1 intact", len(recs))
	}
}

func TestDirStoreSaveAtomic(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("snap/one", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("snap/one", []byte("v2-longer")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load("snap/one")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2-longer" {
		t.Fatalf("Load = %q, want v2-longer", got)
	}
	// No temp files left behind.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

// frame is the on-disk form of one record, built independently of
// DirLog.Append.
func frame(payload []byte) []byte {
	hdr := make([]byte, logHeaderLen, logHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	return append(hdr, payload...)
}

// validPrefix is the reference reader over bytes in memory: the
// payloads of the leading fully-framed, CRC-valid records of data.
func validPrefix(data []byte) (recs [][]byte) {
	for len(data) >= logHeaderLen {
		n := uint64(binary.LittleEndian.Uint32(data[:4]))
		sum := binary.LittleEndian.Uint32(data[4:logHeaderLen])
		if n > uint64(len(data)-logHeaderLen) || crc32.ChecksumIEEE(data[logHeaderLen:logHeaderLen+n]) != sum {
			break
		}
		recs = append(recs, data[logHeaderLen:logHeaderLen+n])
		data = data[logHeaderLen+n:]
	}
	return recs
}

// FuzzDirLogOpen: whatever bytes a crash (or anything else) left in
// wal.log, opening it never panics and never allocates more than the
// file holds, Records is exactly the prefix of CRC-valid frames, the
// file is cut to that prefix once and for all, and the log appends on
// from there.
func FuzzDirLogOpen(f *testing.F) {
	// The adversarial seeds (torn header, torn payload, CRC mismatch, a
	// length field of 4 GiB, a run of empty records) are checked in under
	// testdata/fuzz/FuzzDirLogOpen.
	f.Add([]byte{})
	f.Add(append(frame([]byte("alpha")), frame(nil)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want := validPrefix(data)
		wantSize := int64(len(want) * logHeaderLen)
		for _, r := range want {
			wantSize += int64(len(r))
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l, err := OpenDirLog(path)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		// The slack covers the file handle and whatever the test runtime
		// allocates meanwhile; an unchecked length asks for up to 4 GiB.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(data))+256<<10 {
			t.Errorf("OpenDirLog allocated %d bytes for a %d-byte file", grew, len(data))
		}
		check := func(l *DirLog, want [][]byte, wantSize int64) {
			t.Helper()
			got, err := l.Records()
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("Records returned %d records, the file's valid prefix has %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
				}
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() != wantSize {
				t.Fatalf("log file is %d bytes (%v), its valid prefix %d", fi.Size(), err, wantSize)
			}
		}
		check(l, want, wantSize)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		// A second open finds nothing more to cut, and appends round-trip.
		l, err = OpenDirLog(path)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		check(l, want, wantSize)
		added := []byte("appended after reopen")
		if err := l.Append(added); err != nil {
			t.Fatal(err)
		}
		check(l, append(want[:len(want):len(want)], added), wantSize+logHeaderLen+int64(len(added)))
	})
}
