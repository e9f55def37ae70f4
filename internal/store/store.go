// Package store is the checkpoint store of the testbed — the stand-in
// for the HDFS deployment in the paper's system diagram (Fig. 9).
// Parameter servers save per-job model checkpoints here after every
// synchronized round, for durability. No executor loads them: a task's
// dispatch carries its job's current parameters. The chaos harness,
// the end-to-end benchmark and tests read them back to compare runs.
package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// Store persists named binary blobs.
type Store interface {
	// Save overwrites key with data. It does not retain data, which the
	// caller may reuse once Save returns.
	Save(key string, data []byte) error
	// Load returns the blob at key, or an error if absent.
	Load(key string) ([]byte, error)
	// Exists reports whether key is present.
	Exists(key string) bool
}

// MemStore is an in-memory Store, safe for concurrent use.
type MemStore struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() *MemStore { return &MemStore{m: make(map[string][]byte)} }

// Save implements Store.
func (s *MemStore) Save(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), data...)
	return nil
}

// Load implements Store.
func (s *MemStore) Load(key string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.m[key]
	if !ok {
		return nil, fmt.Errorf("store: key %q not found", key)
	}
	return append([]byte(nil), d...), nil
}

// Exists implements Store.
func (s *MemStore) Exists(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.m[key]
	return ok
}

// DirStore persists blobs as files under a directory; keys map to
// file names with '/' replaced by '__'.
type DirStore struct {
	dir string
	mu  sync.Mutex
}

// NewDir returns a DirStore rooted at dir, creating it if needed.
func NewDir(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	return &DirStore{dir: dir}, nil
}

func (s *DirStore) path(key string) string {
	return filepath.Join(s.dir, strings.ReplaceAll(key, "/", "__"))
}

// Save implements Store. The write is crash-safe: data goes to a temp
// file in the same directory, is fsynced, and is then atomically
// renamed over the destination, with a final fsync of the directory so
// the rename itself is durable. A reader therefore never observes a
// torn or partially-written blob, even if the process dies mid-Save —
// a requirement for the coordinator WAL snapshots built on DirStore.
func (s *DirStore) Save(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp := s.path(key) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, s.path(key)); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(s.dir)
}

// syncDir fsyncs a directory so a preceding rename is durable. Best
// effort on platforms where directories cannot be opened for sync.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		// Some filesystems reject fsync on directories; the rename
		// already happened, so don't fail the Save over it.
		return nil
	}
	return nil
}

// Load implements Store.
func (s *DirStore) Load(key string) ([]byte, error) {
	return os.ReadFile(s.path(key))
}

// Exists implements Store.
func (s *DirStore) Exists(key string) bool {
	_, err := os.Stat(s.path(key))
	return err == nil
}

// EncodeParams serializes a float64 parameter vector (a checkpoint).
func EncodeParams(w []float64) []byte {
	buf := bytes.NewBuffer(make([]byte, 0, 8+8*len(w)))
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(w)))
	buf.Write(n[:])
	for _, x := range w {
		binary.LittleEndian.PutUint64(n[:], math.Float64bits(x))
		buf.Write(n[:])
	}
	return buf.Bytes()
}

// DecodeParams parses a checkpoint written by EncodeParams.
func DecodeParams(data []byte) ([]float64, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("store: checkpoint too short (%d bytes)", len(data))
	}
	n := binary.LittleEndian.Uint64(data[:8])
	if uint64(len(data)-8) != 8*n {
		return nil, fmt.Errorf("store: checkpoint declares %d params but holds %d bytes", n, len(data)-8)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8+8*i:]))
	}
	return out, nil
}

// CheckpointKey names a job's checkpoint after a given round:
// ckpt/job%04d/round%06d. The keys are built without fmt because every
// round close saves through them.
func CheckpointKey(jobID int, round int) string {
	var buf [40]byte
	b := appendPadded(append(buf[:0], "ckpt/job"...), jobID, 4)
	return string(appendPadded(append(b, "/round"...), round, 6))
}

// LatestKey names a job's rolling "latest" checkpoint:
// ckpt/job%04d/latest.
func LatestKey(jobID int) string {
	var buf [40]byte
	return string(append(appendPadded(append(buf[:0], "ckpt/job"...), jobID, 4), "/latest"...))
}

// appendPadded appends n in decimal, zero-padded to width characters,
// sign included, exactly as fmt's %0*d writes it.
func appendPadded(b []byte, n, width int) []byte {
	u := uint64(n)
	if n < 0 {
		b = append(b, '-')
		u, width = -u, width-1
	}
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], u, 10)
	for i := len(d); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, d...)
}
