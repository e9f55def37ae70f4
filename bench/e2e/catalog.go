package main

// The metric catalogue: every name the benchmark may print, with its
// unit and direction. BENCHMARK.json lists exactly these (the
// in-package test compares the two), and metricSet.set refuses
// anything else, so a metric cannot be emitted without being declared.

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// workloadDef names one workload and why it exists.
type workloadDef struct{ Name, Why string }

var workloads = []workloadDef{
	{"plan-online", "planner-bound: Hare + OnlineHare + ValidateSchedule on one of 128 seeded 60-job/32-GPU instances (~1.6k tasks, bursty arrivals) per op; rpcnet and store idle"},
	{"replay-sweep", "simulator-bound: 15 sim.Run per op (5 sched.All plans x 3 switching schemes) on one of 24 seeded 100-job/32-GPU instances (~2.7k tasks); planner only in set-up"},
	{"dist-durable", "control-plane write path: fresh Manager + DistributedBackend, durable WAL on a modelled disk (340 us barrier per record, 1 ms snapshot per 32 pushes), one of 48 seeded ~75-task 4-GPU batches per op"},
	{"dist-recover", "WAL read path: copy a directory journal killed ~88% into a ~600-task batch (16-record tail), OpenDirJournal + RecoverDistributed until it serves, Kill; ~530 tasks restored per op"},
	{"daemon-reuse", "what a harectl user sees: sessions of 15 ~40-task batches on one long-lived Manager over manager.Serve/Dial, memory journal, no fsync; only workload showing the reused-Manager idle"},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

// endToEnd are the metrics a user of the system would see; every
// workload reports all of them on the untraced run. Only wjct_sim is
// simulated time; everything else is host time.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_s", "s", "lower", 0.25},
	{"tasks_per_s", "tasks/s", "higher", 0.25},
	{"cpu_ms_per_ktask", "ms", "lower", 0.25},
	{"alloc_kb_per_task", "KiB", "lower", 0.15},
	{"wjct_sim", "sim_s", "lower", 0.25},
}

// perLayer are the metrics of single layers (layer = package name),
// reported on the traced run. A workload reports 0 for a layer it does
// not exercise.
var perLayer = []metricDef{
	// Input generation (set-up).
	{"workload.generate_s", "s", "lower", 0},
	{"profile.build_instance_s", "s", "lower", 0},
	{"tenants.build_s", "s", "lower", 0},
	// Planner.
	{"sched.hare.plan_s", "s", "lower", 0},
	{"sched.online.plan_s", "s", "lower", 0},
	{"sched.online.us_per_arrival", "us", "lower", 0},
	{"sched.relax.fluid_s", "s", "lower", 0},
	{"sched.hare.alloc_kb", "KiB", "lower", 0},
	{"sched.online.alloc_kb", "KiB", "lower", 0},
	{"sched.baselines.plan_s", "s", "lower", 0},
	{"sched.wjct_vs_best_baseline", "ratio", "higher", 0},
	{"assign.hungarian_us", "us", "lower", 0},
	{"core.validate_s", "s", "lower", 0},
	// Simulator.
	{"sim.run.ns_per_task", "ns", "lower", 0},
	{"sim.run.allocs_per_replay", "count", "lower", 0},
	{"sim.reused.ns_per_task", "ns", "lower", 0},
	{"sim.reference.ns_per_task", "ns", "lower", 0},
	{"sim.sharded.speedup", "ratio", "higher", 0},
	{"switching.cost_ns", "ns", "lower", 0},
	{"gpumem.begin_complete_ns", "ns", "lower", 0},
	// Attribution.
	{"critpath.plan_attribution_s", "s", "lower", 0},
	{"span.build_s", "s", "lower", 0},
	{"critpath.analyze_s", "s", "lower", 0},
	// Manager.
	{"manager.submit_us", "us", "lower", 0},
	{"manager.plan_solve_s", "s", "lower", 0},
	{"manager.backend_execute_s", "s", "lower", 0},
	{"manager.self_s", "s", "lower", 0},
	{"manager.first_task_idle_s", "s", "lower", 0},
	{"manager.first_task_idle_growth_s", "s", "lower", 0},
	{"manager.leaked_goroutines_per_batch", "count", "lower", 0},
	{"manager.rpc.submit_us", "us", "lower", 0},
	{"manager.rpc.statuses_us", "us", "lower", 0},
	{"manager.rpc.critpath_us", "us", "lower", 0},
	// Control plane.
	{"rpcnet.serve_s", "s", "lower", 0},
	{"rpcnet.run_s", "s", "lower", 0},
	{"rpcnet.nojournal.us_per_task", "us", "lower", 0},
	{"rpcnet.memjournal.us_per_task", "us", "lower", 0},
	{"rpcnet.dirjournal.us_per_task", "us", "lower", 0},
	{"testbed.run.us_per_task", "us", "lower", 0},
	{"rpcnet.rpc_calls_per_task", "count", "lower", 0},
	{"rpcnet.heartbeats_per_batch", "count", "lower", 0},
	// WAL, snapshots, checkpoints.
	{"store.wal.appends_per_task", "count", "lower", 0},
	{"store.wal.bytes_per_record", "B", "lower", 0},
	{"store.wal.append_us", "us", "lower", 0},
	{"store.wal.busy_share", "ratio", "lower", 0},
	{"store.snap.saves_per_batch", "count", "lower", 0},
	{"store.snap.kb_per_save", "KiB", "lower", 0},
	{"store.snap.save_ms", "ms", "lower", 0},
	{"store.snap.busy_share", "ratio", "lower", 0},
	{"store.ckpt.saves_per_batch", "count", "lower", 0},
	{"store.ckpt.save_us", "us", "lower", 0},
	{"store.dirlog.append_fsync_us", "us", "lower", 0},
	{"store.dirlog.read_us_per_record", "us", "lower", 0},
	// Recovery.
	{"rpcnet.recover.open_s", "s", "lower", 0},
	{"rpcnet.recover.call_s", "s", "lower", 0},
	{"rpcnet.recover.snapshot_kb", "KiB", "lower", 0},
	{"rpcnet.recover.tail_records", "count", "lower", 0},
	{"rpcnet.recover_tail.us_per_record", "us", "lower", 0},
	{"rpcnet.inspect_s", "s", "lower", 0},
	{"rpcnet.outage_s", "s", "lower", 0},
	// Observability and the benchmark's own tracing.
	{"obs.ring.emit_ns", "ns", "lower", 0},
	{"obs.enabled_overhead_share", "ratio", "lower", 0},
	{"obs.fleet_capture_overhead_share", "ratio", "lower", 0},
	{"dtrace.merge_s", "s", "lower", 0},
	{"bench.op_p90_s", "s", "lower", 0},
	{"bench.trace_overhead_share", "ratio", "lower", 0},
	{"bench.selftime_residual_share", "ratio", "lower", 0},
}

func metricByName(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
