package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// JSONLSink streams events to a writer as one JSON object per line —
// the interchange format behind `haresim -events-out` and `harectl
// tail`. Lines are buffered; call Close (or Sync) to push them out.
type JSONLSink struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	f   *os.File // fsynced at Sync and Close
	err error    // first write error, reported at Close
}

// CreateJSONL opens (truncating) a JSONL event file that Close will
// flush, fsync and close — event tails must survive the process being
// killed right after Close returns (flight-recorder dumps and chaos
// artifacts depend on it).
func CreateJSONL(path string) (*JSONLSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: create %s: %w", path, err)
	}
	return &JSONLSink{bw: bufio.NewWriter(f), f: f}, nil
}

// Record implements Sink. Encoding errors are sticky and surface at
// Close — Record cannot fail without making every emit site fallible.
func (s *JSONLSink) Record(e Event) {
	data, err := json.Marshal(e)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		return
	}
	if s.err == nil {
		data = append(data, '\n')
		if _, err := s.bw.Write(data); err != nil {
			s.err = err
		}
	}
}

// Sync flushes buffered lines and fsyncs the file — the durability
// point for event streams that must survive a kill.
func (s *JSONLSink) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked()
}

func (s *JSONLSink) syncLocked() error {
	if s.err != nil {
		return s.err
	}
	if err := s.bw.Flush(); err != nil {
		return err
	}
	return s.f.Sync()
}

// Close flushes, fsyncs and closes the file. It returns the first
// error seen by any Record call.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	serr := s.syncLocked()
	cerr := s.f.Close()
	if s.err != nil {
		return s.err
	}
	if serr != nil {
		return serr
	}
	return cerr
}

// WriteEventsJSONL writes events to path as JSONL, fsyncing both the
// file and (best-effort) its directory before returning, so the dump
// survives an immediately following process kill.
func WriteEventsJSONL(path string, events []Event) error {
	sink, err := CreateJSONL(path)
	if err != nil {
		return err
	}
	for _, e := range events {
		sink.Record(e)
	}
	if err := sink.Close(); err != nil {
		return fmt.Errorf("obs: write %s: %w", path, err)
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		_ = dir.Sync()
		_ = dir.Close()
	}
	return nil
}

// ReadJSONL decodes a stream of JSONL-encoded events (the format
// Record writes), skipping blank lines.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var out []Event
	for line := 1; sc.Scan(); line++ {
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("obs: events line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: read events: %w", err)
	}
	return out, nil
}

// SaveJSON writes v to path as indented JSON — the CLIs' -attrib-out
// reports.
func SaveJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
