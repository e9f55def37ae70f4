// Append-only record logs backing the coordinator write-ahead log
// (docs/ROBUSTNESS.md). A Log stores opaque binary records in append
// order; the durable implementation (DirLog) frames each record as
//
//	[4-byte little-endian length][4-byte CRC-32 (IEEE)][payload]
//
// fsyncs every append, and truncates a torn tail (a record cut short
// by a crash mid-append) when reopened — so readers only ever see a
// prefix of fully-written records.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// Log is an append-only sequence of binary records.
type Log interface {
	// Append durably adds one record. It does not retain rec, which
	// the caller may reuse once Append returns.
	Append(rec []byte) error
	// Records returns all records in append order.
	Records() ([][]byte, error)
	// Reset discards all records.
	Reset() error
	// Close releases resources; the log may not be used afterwards.
	Close() error
}

// MemLog is an in-memory Log, safe for concurrent use.
type MemLog struct {
	mu   sync.Mutex
	recs [][]byte
}

// NewMemLog returns an empty in-memory log.
func NewMemLog() *MemLog { return &MemLog{} }

// Append implements Log.
func (l *MemLog) Append(rec []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, append([]byte(nil), rec...))
	return nil
}

// Records implements Log.
func (l *MemLog) Records() ([][]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([][]byte, len(l.recs))
	for i, r := range l.recs {
		out[i] = append([]byte(nil), r...)
	}
	return out, nil
}

// Reset implements Log.
func (l *MemLog) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = nil
	return nil
}

// Close implements Log.
func (l *MemLog) Close() error { return nil }

const logHeaderLen = 8 // 4-byte length + 4-byte CRC-32

// DirLog is a durable Log backed by a single file.
type DirLog struct {
	mu   sync.Mutex
	path string
	f    *os.File
}

// OpenDirLog opens (or creates) the log file at path. Any torn tail —
// bytes after the last fully-framed, CRC-valid record — is truncated
// away, so a crash mid-append never corrupts recovery.
func OpenDirLog(path string) (*DirLog, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open log %s: %w", path, err)
	}
	valid, err := readFrames(f, nil)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: truncate torn log tail %s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return &DirLog{path: path, f: f}, nil
}

// readFrames is the one frame reader: it walks f from the start, hands
// each fully-framed, CRC-valid record's payload to each (when non-nil)
// and returns the byte offset where that valid prefix ends. Whatever
// stops the walk — a short header, a payload cut short, a CRC mismatch
// — is a torn tail, not an error. So is a length field that runs past
// the end of the file: the header is read before the CRC can vouch for
// it, so the length is held against the bytes that remain before it is
// allocated (a torn "ff ff ff ff" would otherwise ask for 4 GiB).
func readFrames(f *os.File, each func(payload []byte)) (int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	var off int64
	hdr := make([]byte, logHeaderLen)
	for {
		if _, err := io.ReadFull(f, hdr); err != nil {
			return off, nil
		}
		n := int64(binary.LittleEndian.Uint32(hdr[:4]))
		sum := binary.LittleEndian.Uint32(hdr[4:])
		if n > fi.Size()-off-logHeaderLen {
			return off, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			return off, nil
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return off, nil
		}
		if each != nil {
			each(payload)
		}
		off += logHeaderLen + n
	}
}

// Append implements Log. The record is framed, written, and fsynced
// before Append returns: a successful Append survives a crash.
func (l *DirLog) Append(rec []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("store: log %s is closed", l.path)
	}
	buf := make([]byte, logHeaderLen+len(rec))
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(rec)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(rec))
	copy(buf[logHeaderLen:], rec)
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("store: append log %s: %w", l.path, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("store: sync log %s: %w", l.path, err)
	}
	return nil
}

// Records implements Log.
func (l *DirLog) Records() ([][]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil, fmt.Errorf("store: log %s is closed", l.path)
	}
	var out [][]byte
	if _, err := readFrames(l.f, func(payload []byte) { out = append(out, payload) }); err != nil {
		return nil, err
	}
	if _, err := l.f.Seek(0, io.SeekEnd); err != nil {
		return nil, err
	}
	return out, nil
}

// Reset implements Log.
func (l *DirLog) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("store: log %s is closed", l.path)
	}
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close implements Log.
func (l *DirLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
