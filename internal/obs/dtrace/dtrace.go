// Package dtrace merges per-process event streams from a distributed
// run into one clock-aligned timeline. Each process of the rpcnet
// control plane — the coordinator and every executor — writes its own
// JSONL event stream (and flight-recorder ring); dtrace reads the
// streams back, estimates per-process clock offsets from the RPC
// request/response pairs the trace context links across the wire, and
// merges everything into a single deterministic order:
//
//	(adjusted time, journal LSN, stream, per-process seq)
//
// The (LSN, seq) tie-break makes the merge a pure function of the
// input streams — merging the same files twice is byte-identical, and
// a seed-pinned run's canonical logical timeline (Canonical) is
// byte-identical across replays. `harectl mergetrace` renders the
// merged timeline as a chrome trace with the PR-5 span tree folded in,
// so wire time shows up as the margin between an executor's rpc.client
// slice and the coordinator's nested rpc.server slice.
package dtrace

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hare/internal/obs"
)

// StreamSuffix is the filename suffix of one process's event stream
// inside a trace directory; the prefix names the process ("coord",
// "gpu3", ...).
const StreamSuffix = ".events.jsonl"

// FlightSuffix is the filename suffix of one process's flight-recorder
// dump.
const FlightSuffix = ".flight.jsonl"

// Stream is one process's recorded events, in emission order.
type Stream struct {
	Proc   string
	Events []obs.Event
}

// ReadDir loads every per-process event stream (*.events.jsonl) from a
// trace directory, sorted by process name so downstream merges are
// independent of directory iteration order.
func ReadDir(dir string) ([]Stream, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*"+StreamSuffix))
	if err != nil {
		return nil, fmt.Errorf("dtrace: glob %s: %w", dir, err)
	}
	sort.Strings(paths)
	var out []Stream
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, fmt.Errorf("dtrace: %w", err)
		}
		events, err := obs.ReadJSONL(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("dtrace: %s: %w", p, err)
		}
		out = append(out, Stream{
			Proc:   strings.TrimSuffix(filepath.Base(p), StreamSuffix),
			Events: events,
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("dtrace: no *%s streams in %s", StreamSuffix, dir)
	}
	return out, nil
}

// CoordStream returns the index of the coordinator's stream — the one
// carrying rpc.server events (falling back to task-finish events, then
// to stream 0 for degenerate inputs).
func CoordStream(streams []Stream) int {
	for i, s := range streams {
		for _, e := range s.Events {
			if e.Type == obs.EvRPCServer || e.Type == obs.EvWALAppend {
				return i
			}
		}
	}
	for i, s := range streams {
		for _, e := range s.Events {
			if e.Type == obs.EvTaskFinish {
				return i
			}
		}
	}
	return 0
}
