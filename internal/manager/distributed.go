package manager

import (
	"fmt"
	"path/filepath"
	"sync"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/faults"
	"hare/internal/model"
	"hare/internal/obs"
	"hare/internal/obs/dtrace"
	"hare/internal/rpcnet"
	"hare/internal/store"
	"hare/internal/trace"
)

// DistributedBackend executes batches on the distributed testbed: the
// rpcnet coordinator serves the control plane and one executor client
// per GPU dials in and pulls tasks. The executors are goroutines of
// this process, so they dial an in-memory listener: the same protocol,
// codec and kill path as a TCP fleet, without sockets. It is the
// only backend that replays the full fault surface — executor crashes,
// device failures, network chaos (Faults.Net) — and, with a Journal,
// the only crash-safe one: a batch interrupted by a coordinator death
// resumes from the WAL (see rpcnet.RecoverDistributed and cmd/hared's
// boot-time resume).
type DistributedBackend struct {
	// TimeScale is the shared wall clock's scale; it must be positive
	// and finite (rpcnet.DistributedOptions.TimeScale), so the zero
	// value fails every batch.
	TimeScale float64
	// Store receives checkpoints (in-memory by default).
	Store store.Store
	// Faults is the full fault plan, including network chaos.
	Faults *faults.Plan
	// Journal, when set, makes every batch crash-safe.
	Journal *rpcnet.Journal
	// Recorder receives coordinator and executor events; Metrics the
	// counters. Both optional.
	Recorder *obs.Recorder
	Metrics  *obs.Registry
	// TraceDir, when set, captures one distributed trace per executed
	// batch under TraceDir/batch-N: a per-process event stream for the
	// coordinator and each executor, flight-recorder dumps, and the
	// cross-process merge as merged_trace.json (readable with `harectl
	// mergetrace` / a chrome trace viewer). The Recorder still sees
	// every event.
	TraceDir string

	mu      sync.Mutex
	batches int
}

// Execute implements Backend.
func (b *DistributedBackend) Execute(in *core.Instance, plan *core.Schedule, cl *cluster.Cluster, models []*model.Model) ([]float64, *trace.Trace, error) {
	// Nothing here kills and recovers the coordinator, so a codown
	// clause would be recorded and never acted on.
	if err := b.Faults.CheckEngine(faults.Distributed); err != nil {
		return nil, nil, err
	}
	var fleet *dtrace.Fleet
	if b.TraceDir != "" {
		b.mu.Lock()
		b.batches++
		n := b.batches
		b.mu.Unlock()
		var err error
		fleet, err = dtrace.NewFleet(filepath.Join(b.TraceDir, fmt.Sprintf("batch-%d", n)),
			cl.Size(), b.Recorder.Sinks()...)
		if err != nil {
			return nil, nil, fmt.Errorf("manager: trace: %w", err)
		}
	}
	// Each batch's coordinator listens under a fresh in-memory name.
	srv, bound, wait, err := rpcnet.ServeDistributed("mem:", in, plan, cl, models, rpcnet.DistributedOptions{
		TimeScale:   b.TimeScale,
		Scheme:      execScheme,
		Speculative: execSpeculative,
		Store:       b.Store,
		Faults:      b.Faults,
		Journal:     b.Journal,
		Recorder:    fleet.CoordRecorder(b.Recorder),
		Metrics:     b.Metrics,
	})
	if err != nil {
		return nil, nil, err
	}
	// The coordinator lives for this batch only: without the Close its
	// listener, accept goroutine and state outlive every batch.
	defer srv.Close()
	waitFleet := rpcnet.StartFleet(bound, cl.Size(), func(g int) rpcnet.ExecutorOptions {
		return rpcnet.ExecutorOptions{
			Chaos:     b.Faults.NetModel(),
			ChaosSeed: b.Faults.NetSeed(),
			Recorder:  fleet.ExecRecorder(g, b.Recorder),
			Metrics:   b.Metrics,
		}
	})
	res, err := wait()
	// Executor errors surface through the coordinator (lease fencing or
	// error reports); a crashed executor is an expected outcome under
	// crash faults.
	waitFleet()
	if err != nil {
		// A failed batch is exactly when the flight rings matter.
		fleet.DumpFlights()
		if cerr := fleet.Close(); cerr != nil {
			return nil, nil, fmt.Errorf("%w (trace merge also failed: %v)", err, cerr)
		}
		return nil, nil, err
	}
	if err := fleet.Close(); err != nil {
		return nil, nil, fmt.Errorf("manager: trace: %w", err)
	}
	return res.JobCompletion, res.Trace, nil
}
