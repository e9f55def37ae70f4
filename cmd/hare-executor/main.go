// Command hare-executor is the worker-side daemon of the distributed
// testbed: one process per GPU. It dials the coordinator (started by
// haretestbed -distributed or rpcnet.ServeDistributed), fetches its
// task sequence, profiled times and clock epoch, executes its tasks
// against the remote parameter servers, and reports the measured
// records back. A -fault-spec with net* clauses injects seeded network
// chaos (drops, duplicates, delays, reordering, partitions) into this
// executor's calls; crash and transient faults are configured by the
// coordinator and need no flags here.
//
//	hare-executor -addr 127.0.0.1:7462 -gpu 3
//	hare-executor -addr 127.0.0.1:7462 -gpu 3 -fault-spec netdrop=0.05,netdelay=1ms~5ms
package main

import (
	"flag"
	"fmt"
	"os"

	"hare/internal/cliflags"
	"hare/internal/faults"
	"hare/internal/obs"
	"hare/internal/obs/dtrace"
	"hare/internal/rpcnet"
)

var (
	addr      = flag.String("addr", "127.0.0.1:7462", "coordinator address")
	gpu       = flag.Int("gpu", -1, "this executor's GPU index (required)")
	faultSpec = cliflags.Faults(flag.CommandLine, "client-side network chaos (this executor injects the net* clauses; the coordinator configures the rest)")
	chaosSeed = flag.Int64("chaos-seed", 0, "chaos decision-stream seed (overrides netseed= in -fault-spec)")
	eventsOut = flag.String("events-out", "", "write this executor's trace-context event stream into DIR/gpuN.events.jsonl; on failure a flight-recorder ring is dumped alongside (merge with `harectl mergetrace DIR`)")
	flightCap = flag.Int("flight-cap", 512, "flight-recorder ring capacity for -events-out")
)

func main() {
	flag.Parse()
	if *gpu < 0 {
		fmt.Fprintln(os.Stderr, "hare-executor: -gpu is required")
		os.Exit(2)
	}
	// An executor knows neither the fleet size nor what supervises the
	// coordinator: the process that started it checked the spec.
	fplan, err := faultSpec(0, faults.Orchestrated)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hare-executor: %v\n", err)
		os.Exit(2)
	}
	seed := fplan.NetSeed()
	if *chaosSeed != 0 {
		seed = *chaosSeed
	}
	var (
		stream *dtrace.ProcStream
		rec    *obs.Recorder
	)
	if *eventsOut != "" {
		if err := os.MkdirAll(*eventsOut, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "hare-executor: %v\n", err)
			os.Exit(2)
		}
		stream, err = dtrace.NewProcStream(*eventsOut, fmt.Sprintf("gpu%d", *gpu), *flightCap)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hare-executor: %v\n", err)
			os.Exit(2)
		}
		rec = stream.Recorder
	}
	if err := rpcnet.RunExecutorOpts(*addr, *gpu, rpcnet.ExecutorOptions{
		Chaos: fplan.NetModel(), ChaosSeed: seed, Recorder: rec,
	}); err != nil {
		// Failure is exactly when the flight ring matters: dump the
		// events leading into the error next to the main stream.
		_ = stream.DumpFlight()
		_ = stream.Close()
		fmt.Fprintf(os.Stderr, "hare-executor: %v\n", err)
		os.Exit(1)
	}
	if err := stream.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "hare-executor: trace: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("hare-executor: GPU %d done\n", *gpu)
}
