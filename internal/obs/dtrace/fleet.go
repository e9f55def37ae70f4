package dtrace

import (
	"fmt"
	"os"
	"path/filepath"

	"hare/internal/obs"
)

// Fleet is the standard stream set of one distributed run: a "coord"
// ProcStream for the coordinator (spanning every incarnation, so seq
// stays monotone across recoveries) and one "gpuN" stream per
// executor. Harnesses hand each process its recorder, dump flights at
// forensic moments, and Close renders the cross-process merge.
type Fleet struct {
	Dir   string
	Coord *ProcStream
	Execs []*ProcStream
}

// fleetFlightCap is each fleet stream's flight-ring capacity: the full
// RPC churn of several rounds — enough context around a violation,
// bounded memory.
const fleetFlightCap = 512

// NewFleet creates dir and one stream per process. The extra sinks
// (typically a caller's shared recorder's sinks, via
// (*obs.Recorder).Sinks()) receive every process's events too.
func NewFleet(dir string, gpus int, extra ...obs.Sink) (*Fleet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dtrace: fleet dir: %w", err)
	}
	coord, err := NewProcStream(dir, "coord", fleetFlightCap, extra...)
	if err != nil {
		return nil, err
	}
	f := &Fleet{Dir: dir, Coord: coord, Execs: make([]*ProcStream, gpus)}
	for g := 0; g < gpus; g++ {
		if f.Execs[g], err = NewProcStream(dir, fmt.Sprintf("gpu%d", g), fleetFlightCap, extra...); err != nil {
			f.closeStreams()
			return nil, err
		}
	}
	return f, nil
}

// CoordRecorder is the coordinator's recorder, or def when the fleet
// is nil (tracing off).
func (f *Fleet) CoordRecorder(def *obs.Recorder) *obs.Recorder {
	if f == nil {
		return def
	}
	return f.Coord.Recorder
}

// ExecRecorder is GPU g's recorder, or def when the fleet is nil.
func (f *Fleet) ExecRecorder(g int, def *obs.Recorder) *obs.Recorder {
	if f == nil {
		return def
	}
	return f.Execs[g].Recorder
}

// DumpFlights writes every process's flight ring to disk.
func (f *Fleet) DumpFlights() {
	if f == nil {
		return
	}
	_ = f.Coord.DumpFlight()
	for _, e := range f.Execs {
		_ = e.DumpFlight()
	}
}

// Sync fsyncs every stream's tail without closing.
func (f *Fleet) Sync() {
	if f == nil {
		return
	}
	_ = f.Coord.Sync()
	for _, e := range f.Execs {
		_ = e.Sync()
	}
}

func (f *Fleet) closeStreams() {
	_ = f.Coord.Close()
	for _, e := range f.Execs {
		if e != nil {
			_ = e.Close()
		}
	}
}

// Close flushes and closes every stream, then merges them into
// <Dir>/merged_trace.json. Nil-safe.
func (f *Fleet) Close() error {
	if f == nil {
		return nil
	}
	f.closeStreams()
	streams, err := ReadDir(f.Dir)
	if err != nil {
		return err
	}
	out, err := os.Create(filepath.Join(f.Dir, "merged_trace.json"))
	if err != nil {
		return fmt.Errorf("dtrace: %w", err)
	}
	defer out.Close()
	if _, err := WriteChrome(out, streams); err != nil {
		return err
	}
	return nil
}
