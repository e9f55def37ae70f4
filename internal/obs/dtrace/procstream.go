package dtrace

import (
	"fmt"
	"path/filepath"

	"hare/internal/obs"
)

// ProcStream is the writing half of a per-process trace: a seq-stamped
// recorder fanning into the process's durable JSONL stream and its
// in-memory flight-recorder ring. Harnesses give the coordinator and
// each executor one ProcStream; after the run (or on a crash), the
// directory holds one <proc>.events.jsonl per process for ReadDir and
// — when DumpFlight ran — the <proc>.flight.jsonl forensics ring.
type ProcStream struct {
	Proc string
	// Recorder stamps this process's seq and feeds the stream; pass it
	// (plus any extra sinks via obs.NewSeqRecorder) to the process.
	Recorder *obs.Recorder
	Flight   *obs.RingSink

	dir  string
	sink *obs.JSONLSink
}

// NewProcStream creates <dir>/<proc>.events.jsonl and a flight ring of
// flightCap events, with extra sinks (e.g. a harness's shared
// collector) receiving the same seq-stamped events.
func NewProcStream(dir, proc string, flightCap int, extra ...obs.Sink) (*ProcStream, error) {
	sink, err := obs.CreateJSONL(filepath.Join(dir, proc+StreamSuffix))
	if err != nil {
		return nil, fmt.Errorf("dtrace: %w", err)
	}
	flight := obs.NewRingSink(flightCap)
	sinks := append([]obs.Sink{sink, flight}, extra...)
	return &ProcStream{
		Proc:     proc,
		Recorder: obs.NewSeqRecorder(sinks...),
		Flight:   flight,
		dir:      dir,
		sink:     sink,
	}, nil
}

// DumpFlight writes the process's flight ring to
// <dir>/<proc>.flight.jsonl (fsynced), replacing any previous dump.
func (p *ProcStream) DumpFlight() error {
	if p == nil {
		return nil
	}
	return p.Flight.Dump(filepath.Join(p.dir, p.Proc+FlightSuffix))
}

// Sync flushes and fsyncs the stream without closing it — called at
// the same forensic moments as DumpFlight so the main stream's tail is
// as durable as the ring.
func (p *ProcStream) Sync() error {
	if p == nil {
		return nil
	}
	return p.sink.Sync()
}

// Close flushes, fsyncs and closes the stream file.
func (p *ProcStream) Close() error {
	if p == nil {
		return nil
	}
	return p.sink.Close()
}
