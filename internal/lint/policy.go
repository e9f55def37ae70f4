package lint

import "strings"

// Level is an enforcement level for one analyzer in one package.
type Level int

const (
	// LevelOff disables the analyzer for the package.
	LevelOff Level = iota
	// LevelWarn reports advisory diagnostics.
	LevelWarn
	// LevelError reports gating diagnostics.
	LevelError
)

// Rules is the resolved enforcement profile of one package: one level
// per analyzer.
type Rules struct {
	MapRange    Level
	WallTime    Level
	GlobalRand  Level
	FloatEq     Level
	ObsRecorder Level
}

// Policy maps import paths to Rules by longest-prefix match on path
// segments; unmatched packages get Default. The zero value enforces
// nothing.
type Policy struct {
	Default Rules
	PerPath map[string]Rules
}

// For resolves the rules for an import path. A PerPath entry covers
// the path itself and everything below it (so "hare/internal/sched"
// also covers "hare/internal/sched/relax"); the longest matching
// prefix wins.
func (p Policy) For(path string) Rules {
	best, bestLen := p.Default, -1
	//lint:ordered equal-length matching prefixes are identical, so the longest winner is unique
	for prefix, rules := range p.PerPath {
		if path != prefix && !strings.HasPrefix(path, prefix+"/") {
			continue
		}
		if len(prefix) > bestLen {
			best, bestLen = rules, len(prefix)
		}
	}
	return best
}

func uniform(l Level) Rules {
	return Rules{MapRange: l, WallTime: l, GlobalRand: l, FloatEq: l, ObsRecorder: l}
}

// DefaultPolicy is the repository's policy table, keyed under the
// given module path ("hare" in this repo). The tiers, documented in
// docs/STATIC_ANALYSIS.md:
//
//   - Engine packages — everything replayed byte-identically across
//     the incremental simulator, the reference engine, the testbed and
//     the distributed control plane — enforce every analyzer as an
//     error.
//   - Real-time packages (rpcnet, obs) legitimately read the wall
//     clock, so walltime is off there; obs owns the raw sinks, so
//     obsrecorder is off inside it. testbed is real-time too, but its
//     wall clock is one annotated type (Clock), so walltime is an error.
//   - internal/stats is the one place allowed to touch math/rand: it
//     wraps it behind seeded streams.
//   - cmd and the remaining library packages get advisory (warning)
//     map-range and float-eq checks but still hard-fail on the global
//     rand source.
func DefaultPolicy(module string) Policy {
	engine := uniform(LevelError)
	lib := Rules{
		MapRange:    LevelWarn,
		WallTime:    LevelWarn,
		GlobalRand:  LevelError,
		FloatEq:     LevelWarn,
		ObsRecorder: LevelWarn,
	}
	per := map[string]Rules{}
	for _, p := range []string{
		"internal/core", "internal/sim", "internal/sched", "internal/assign",
		"internal/faults", "internal/switching", "internal/experiments",
		"internal/eventq", "internal/gpumem",
	} {
		per[module+"/"+p] = engine
	}
	per[module+"/internal/stats"] = Rules{
		MapRange: LevelError, WallTime: LevelError,
		GlobalRand: LevelOff, FloatEq: LevelWarn, ObsRecorder: LevelOff,
	}
	per[module+"/internal/obs"] = Rules{
		MapRange: LevelWarn, WallTime: LevelOff,
		GlobalRand: LevelError, FloatEq: LevelWarn, ObsRecorder: LevelOff,
	}
	// span and critpath are derived-observation packages: they fold
	// already-recorded events into trees and attribution reports that
	// must be a deterministic function of the event set, and they must
	// never emit events themselves — consuming the stream they would
	// be appending to. Every analyzer is a gating error, unlike their
	// parent obs, which owns the raw sinks.
	per[module+"/internal/obs/span"] = engine
	per[module+"/internal/obs/critpath"] = engine
	// dtrace merges per-process streams into one timeline that must be
	// a deterministic function of the streams, so it gets the engine
	// tier — except obsrecorder: the ProcStream half legitimately
	// constructs raw sinks (JSONL files, flight rings) on obs's behalf.
	per[module+"/internal/obs/dtrace"] = Rules{
		MapRange: LevelError, WallTime: LevelError,
		GlobalRand: LevelError, FloatEq: LevelError, ObsRecorder: LevelOff,
	}
	realtime := Rules{
		MapRange: LevelError, WallTime: LevelOff,
		GlobalRand: LevelError, FloatEq: LevelWarn, ObsRecorder: LevelWarn,
	}
	per[module+"/internal/rpcnet"] = realtime
	testbed := realtime
	testbed.WallTime = LevelError
	per[module+"/internal/testbed"] = testbed
	// chaos drives real coordinator kill/restart cycles on wall-clock
	// deadlines, so it sits in the real-time tier with the transport it
	// torments.
	per[module+"/internal/chaos"] = realtime
	per[module+"/cmd"] = Rules{
		MapRange: LevelWarn, WallTime: LevelOff,
		GlobalRand: LevelError, FloatEq: LevelWarn, ObsRecorder: LevelError,
	}
	per[module+"/examples"] = Rules{
		MapRange: LevelWarn, WallTime: LevelOff,
		GlobalRand: LevelError, FloatEq: LevelOff, ObsRecorder: LevelWarn,
	}
	return Policy{Default: lib, PerPath: per}
}
