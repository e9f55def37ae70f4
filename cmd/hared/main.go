// Command hared is the Hare cluster-manager daemon: the central
// scheduler of the paper's Fig. 9 as a long-running service. It owns
// a GPU fleet, accepts job submissions over net/rpc (see
// cmd/harectl), profiles them with the reuse database, plans each
// batch with Hare's algorithm, and executes on the in-process testbed
// (or, with -backend sim, the instant simulator; or, with -backend dist,
// the distributed rpcnet control plane, which with -wal-dir is crash-safe:
// a daemon killed mid-batch finishes that batch from its write-ahead
// log at next boot).
//
// Example session:
//
//	hared -gpus 16 -het high &
//	harectl -addr 127.0.0.1:7461 submit -model ResNet50 -rounds 20 -scale 2
//	harectl -addr 127.0.0.1:7461 run
//	harectl -addr 127.0.0.1:7461 status
//	harectl -addr 127.0.0.1:7461 critpath 0
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hare/internal/cliflags"
	"hare/internal/faults"
	"hare/internal/manager"
	"hare/internal/obs"
	"hare/internal/obs/perf"
	"hare/internal/rpcnet"
)

var (
	addr      = flag.String("addr", "127.0.0.1:7461", "listen address")
	debugAddr = flag.String("debug-addr", "127.0.0.1:7462", "HTTP debug listener for /metrics and /events (\"\" disables)")
	ringSize  = flag.Int("event-ring", 4096, "recent-event ring capacity for /events")
	fleet     = cliflags.Fleet(flag.CommandLine, "testbed-fleet")
	backendNm = flag.String("backend", "testbed", "batch executor: testbed, sim, or dist")
	walDir    = flag.String("wal-dir", "", "durable WAL/snapshot directory for the dist backend; leftover state is recovered at boot")
	traceDir  = flag.String("trace-dir", "", "capture a distributed trace per batch under DIR/batch-N (dist backend): per-process event streams, flight dumps, merged_trace.json")
	faultSpec = cliflags.Faults(flag.CommandLine, "fault injection applied to every batch")
	timescale = cliflags.Timescale(flag.CommandLine)
	batches   = flag.Int("batches-per-task", 0, "profiler mini-batches per task (0 = default)")
	sampleEvy = flag.Duration("runtime-sample", 5*time.Second, "runtime/metrics sampling interval for /metrics (needs -debug-addr)")
)

func main() {
	flag.Parse()
	engine, scale, err := checkFlags()
	if err != nil {
		fatal(err)
	}
	cl, err := fleet()
	if err != nil {
		fatal(err)
	}
	fplan, err := faultSpec(cl.Size(), engine)
	if err != nil {
		fatal(err)
	}

	// Observability plane: every batch's events land in a ring the
	// debug listener serves; counters live in one shared registry.
	var (
		reg  *obs.Registry
		ring *obs.RingSink
		rec  *obs.Recorder
	)
	if *debugAddr != "" {
		reg = obs.NewRegistry()
		ring = obs.NewRingSink(*ringSize)
		ring.AttachMetrics(reg)
		rec = obs.NewRecorder(ring)
		// Mirror GC/heap/goroutine stats into /metrics so the daemon's
		// own health rides next to the scheduling counters.
		sampler := perf.StartRuntimeSampler(reg, *sampleEvy)
		defer sampler.Stop()
	}

	backend, err := buildBackend(engine, scale, fplan, rec, reg)
	if err != nil {
		fatal(err)
	}
	m := manager.New(cl, manager.Options{
		Backend: backend, BatchesPerTask: *batches,
		Recorder: rec, Metrics: reg,
	})
	srv, bound, err := manager.Serve(*addr, m)
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	fmt.Printf("hared: managing %s\n", cl)
	if !fplan.Empty() {
		fmt.Printf("hared: injecting faults into every batch: %s\n", fplan)
	}
	fmt.Printf("hared: listening on %s (submit with harectl)\n", bound)
	if *debugAddr != "" {
		dbg, dbgBound, err := obs.ServeDebug(*debugAddr, reg, ring)
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
		fmt.Printf("hared: debug endpoints on http://%s (metrics, events)\n", dbgBound)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\nhared: shutting down")
}

// backendEngines maps -backend to the engine class it runs plans on.
var backendEngines = map[string]faults.Engine{
	"testbed": faults.InProcess, "sim": faults.Simulator, "dist": faults.Distributed,
}

// checkFlags resolves -backend to its engine class and -timescale to
// the scale that engine runs, and rejects flags the chosen backend would
// silently ignore: only the dist backend has a WAL to keep and a control
// plane to trace, the simulator has no clock, and only the in-process
// testbed has a virtual one.
func checkFlags() (faults.Engine, float64, error) {
	name := strings.ToLower(*backendNm)
	engine, ok := backendEngines[name]
	if !ok {
		return 0, 0, fmt.Errorf("unknown backend %q (want testbed, sim, or dist)", name)
	}
	if engine != faults.Distributed {
		if err := cliflags.Ignored(flag.CommandLine, "requires -backend dist", "wal-dir", "trace-dir"); err != nil {
			return engine, 0, err
		}
	}
	if engine == faults.Simulator {
		return engine, 0, cliflags.Ignored(flag.CommandLine, "requires -backend testbed or dist", "timescale")
	}
	scale, err := timescale(engine)
	return engine, scale, err
}

// buildBackend builds the batch executor of -backend's engine class. The
// dist backend opens the -wal-dir journal and, if a previous process died
// mid-batch, finishes that batch from the WAL before the daemon accepts
// new work.
func buildBackend(engine faults.Engine, scale float64, fplan *faults.Plan, rec *obs.Recorder, reg *obs.Registry) (manager.Backend, error) {
	switch engine {
	case faults.Simulator:
		return &manager.SimBackend{Faults: fplan, Recorder: rec, Metrics: reg}, nil
	case faults.InProcess:
		return &manager.TestbedBackend{TimeScale: scale, Faults: fplan, Recorder: rec}, nil
	default: // dist
		journal := rpcnet.NewMemJournal()
		if *walDir != "" {
			var err error
			journal, err = rpcnet.OpenDirJournal(*walDir)
			if err != nil {
				return nil, err
			}
			leftover, err := journal.HasState()
			if err != nil {
				return nil, err
			}
			if leftover {
				if err := resumeBatch(journal, rec, reg); err != nil {
					return nil, fmt.Errorf("resume interrupted batch from %s: %w", *walDir, err)
				}
			}
		}
		return &manager.DistributedBackend{
			TimeScale: scale, Faults: fplan, Journal: journal,
			Recorder: rec, Metrics: reg, TraceDir: *traceDir,
		}, nil
	}
}

// resumeBatch finishes a batch a previous hared process left in the
// WAL: recover the coordinator from the journal, respawn one executor
// per GPU of the snapshotted fleet, and wait it out. The resumed
// batch's jobs predate this process so their completions are only
// logged, but their checkpoints land in the recovered run's store and
// the journal is cleared — without this, the durable state would
// shadow every future batch.
func resumeBatch(journal *rpcnet.Journal, rec *obs.Recorder, reg *obs.Registry) error {
	// The executors are goroutines of this process, so they reach the
	// coordinator over an in-memory listener.
	srv, bound, wait, err := rpcnet.RecoverDistributed("mem:", journal, rpcnet.RecoverOptions{
		Recorder: rec, Metrics: reg,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("hared: recovering interrupted batch from WAL (%d executors on %s)\n", srv.FleetSize(), bound)
	chaos := srv.FaultPlan()
	waitFleet := rpcnet.StartFleet(bound, srv.FleetSize(), func(int) rpcnet.ExecutorOptions {
		return rpcnet.ExecutorOptions{
			Chaos: chaos.NetModel(), ChaosSeed: chaos.NetSeed(),
			Recorder: rec, Metrics: reg,
		}
	})
	res, err := wait()
	if err != nil {
		return err
	}
	waitFleet() // the batch is complete; a fenced executor's error changes nothing
	fmt.Printf("hared: recovered batch complete: %d jobs, makespan %.2fs, %d recoveries\n",
		len(res.JobCompletion), res.Makespan, res.Recoveries)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hared:", err)
	os.Exit(1)
}
