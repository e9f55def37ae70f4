// Command haretestbed runs a workload end-to-end on the testbed: real
// SGD workers, per-job parameter servers, checkpointing and Hare's fast
// task switching. By default everything runs in one process and the
// per-job loss table is printed. With -rpc the batch goes through the
// distributed control plane — the pull-based coordinator over TCP,
// mirroring the paper's prototype in which the central scheduler talks
// to executors over gRPC — with one executor goroutine per GPU;
// -distributed uses one executor OS process per GPU. Both print the
// coordinator's summary (tasks, recovery, weighted JCT, switching).
//
// Example:
//
//	haretestbed -jobs 8 -scale 0.05 -timescale 1e-3
//	haretestbed -jobs 6 -rpc          # executors dial the coordinator
//	haretestbed -jobs 6 -distributed  # one OS process per GPU
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"

	"hare"
	"hare/internal/cliflags"
	"hare/internal/faults"
	"hare/internal/metrics"
	"hare/internal/rpcnet"
)

var (
	jobs      = flag.Int("jobs", 8, "number of jobs")
	scale     = flag.Float64("scale", 0.05, "rounds scale")
	seed      = flag.Int64("seed", 1, "random seed")
	timescale = cliflags.Timescale(flag.CommandLine)
	faultSpec = cliflags.Faults(flag.CommandLine, "fault injection (the in-process testbed by default, the distributed control plane with -rpc/-distributed)")
	useRPC    = flag.Bool("rpc", false, "run through the distributed coordinator over TCP, one executor goroutine per GPU")
	addr      = flag.String("addr", "127.0.0.1:0", "control-plane listen address with -rpc/-distributed")
	distrib   = flag.Bool("distributed", false, "spawn one executor OS process per GPU")

	// Hidden executor-process mode: haretestbed re-executes itself
	// with these flags to become one GPU's executor.
	execMode = flag.Bool("executor", false, "internal: run as an executor process")
	execGPU  = flag.Int("executor-gpu", -1, "internal: executor GPU index")
)

func main() {
	flag.Parse()
	cl := hare.TestbedCluster()
	engine := faults.InProcess
	if *distrib || *useRPC || *execMode {
		engine = faults.Distributed // nothing here kills and recovers the coordinator
	}
	timeScale, err := timescale(engine)
	if err != nil {
		fatal(err)
	}
	fplan, err := faultSpec(cl.Size(), engine)
	if err != nil {
		fatal(err)
	}
	// Network chaos is injected executor-side (above the codec), so every
	// executor gets the spec itself; crash and transient faults arrive
	// via the coordinator's Config RPC.
	execOpts := rpcnet.ExecutorOptions{Chaos: fplan.NetModel(), ChaosSeed: fplan.NetSeed()}
	if *execMode {
		if err := rpcnet.RunExecutorOpts(*addr, *execGPU, execOpts); err != nil {
			fatal(err)
		}
		return
	}
	_, in, models, err := hare.BuildWorkload(hare.WorkloadConfig{
		Jobs: *jobs, Seed: *seed, HorizonSeconds: 60, RoundsScale: *scale,
	}, cl)
	if err != nil {
		fatal(err)
	}
	plan, err := hare.NewScheduler().Schedule(in)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("cluster: %s\n", cl)
	fmt.Printf("planned %d tasks across %d jobs; executing on the testbed...\n", in.NumTasks(), len(in.Jobs))
	if !fplan.Empty() {
		fmt.Printf("faults: %s\n", fplan)
	}
	fmt.Println()

	switch {
	case *distrib:
		// Re-execute this binary once per GPU (the hidden -executor
		// mode — each child is exactly what cmd/hare-executor runs).
		self, err := os.Executable()
		if err != nil {
			fatal(err)
		}
		runDistributed(in, plan, cl, models, fplan, timeScale, "processes", func(bound string) func() []error {
			cmds := make([]*exec.Cmd, in.NumGPUs)
			for g := range cmds {
				cmds[g] = exec.Command(self, "-executor", "-addr", bound, "-executor-gpu", fmt.Sprint(g),
					"-fault-spec", fplan.String())
				cmds[g].Stderr = os.Stderr
				if err := cmds[g].Start(); err != nil {
					fatal(err)
				}
			}
			return func() []error {
				errs := make([]error, len(cmds))
				for g, cmd := range cmds {
					errs[g] = cmd.Wait()
				}
				return errs
			}
		})
		return
	case *useRPC:
		runDistributed(in, plan, cl, models, fplan, timeScale, "goroutines", func(bound string) func() []error {
			return rpcnet.StartFleet(bound, in.NumGPUs, func(int) rpcnet.ExecutorOptions { return execOpts })
		})
		return
	}

	res, err := hare.RunTestbed(in, plan, cl, models, hare.TestbedOptions{
		TimeScale:   timeScale,
		Scheme:      hare.SwitchHare,
		Speculative: true,
		Faults:      fplan,
	})
	if err != nil {
		fatal(err)
	}

	var rows [][]string
	for _, j := range in.Jobs {
		rows = append(rows, []string{
			j.Name,
			fmt.Sprintf("%.2f", j.Weight),
			metrics.FormatSeconds(j.Arrival),
			metrics.FormatSeconds(res.JobCompletion[j.ID]),
			fmt.Sprintf("%.4f", res.InitialLosses[j.ID]),
			fmt.Sprintf("%.4f", res.FinalLosses[j.ID]),
		})
	}
	fmt.Print(metrics.Table(
		[]string{"job", "weight", "arrival", "completion", "loss@r0", "loss@end"}, rows))
	fmt.Printf("\nweighted JCT: %.0f   makespan: %s\n", res.WeightedJCT, metrics.FormatSeconds(res.Makespan))
	fmt.Printf("switching: %s across %d switches (%d residency hits)\n",
		metrics.FormatSeconds(res.TotalSwitch), res.SwitchCount, res.ResidencyHits)
	if !fplan.Empty() {
		fmt.Printf("faults: %d retried attempts\n", res.Retries)
	}
}

// runDistributed serves the coordinator, starts one executor per GPU
// through start (which returns the fleet's wait func, yielding each
// executor's exit error), and prints the coordinator's summary. unit
// names what start spawns.
func runDistributed(in *hare.Instance, plan *hare.Schedule, cl *hare.Cluster, models []*hare.Model, fplan *hare.FaultPlan,
	timeScale float64, unit string, start func(bound string) (wait func() []error)) {
	srv, bound, wait, err := rpcnet.ServeDistributed(*addr, in, plan, cl, models, rpcnet.DistributedOptions{
		TimeScale: timeScale, Scheme: hare.SwitchHare, Speculative: true,
		Faults: fplan,
	})
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	fmt.Printf("coordinator on %s; spawning %d executor %s\n", bound, in.NumGPUs, unit)
	waitFleet := start(bound)
	res, err := wait()
	if err != nil {
		fatal(err)
	}
	// The coordinator finished, so a failing executor (an injected
	// crash, or a fence after its GPU was marked failed) is a tolerated
	// casualty, not a run failure.
	for g, err := range waitFleet() {
		if err != nil {
			fmt.Printf("executor %d exited with %v (tolerated; coordinator recovered)\n", g, err)
		}
	}
	fmt.Printf("distributed run: %d tasks across %d %s\n", len(res.Trace.Records), in.NumGPUs, unit)
	if len(res.FailedGPUs) > 0 || res.Retries > 0 {
		fmt.Printf("recovery: %d retries, %d GPU failures %v, %d tasks migrated, %d reschedules\n",
			res.Retries, len(res.FailedGPUs), res.FailedGPUs, res.TasksMigrated, res.Reschedules)
	}
	fmt.Printf("weighted JCT: %.0f   makespan: %s\n", res.WeightedJCT, metrics.FormatSeconds(res.Makespan))
	fmt.Printf("switching: %s across %d switches (%d residency hits)\n",
		metrics.FormatSeconds(res.TotalSwitch), res.SwitchCount, res.ResidencyHits)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "haretestbed:", err)
	os.Exit(1)
}
