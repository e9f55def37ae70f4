// Package hare is a Go reproduction of "Hare: Exploiting Inter-job
// and Intra-job Parallelism of Distributed Machine Learning on
// Heterogeneous GPUs" (Chen, Li, Wu, Guo — HPDC 2022).
//
// Hare schedules multiple distributed machine-learning (DML) jobs on
// a cluster of heterogeneous GPUs to minimize total weighted job
// completion time. It combines three ideas:
//
//   - fast task switching (early task cleaning + speculative GPU
//     memory management on top of pipelined context switching), which
//     makes task-level GPU preemption essentially free;
//   - relaxed scale-fixed synchronization, which keeps each training
//     round's task count fixed (for convergence certainty) but lets
//     the tasks run sequentially on shared GPUs instead of demanding
//     simultaneous gang execution;
//   - a relaxation-driven list-scheduling heuristic (the paper's
//     Algorithm 1) with an α(2+α) approximation guarantee.
//
// This package is the stable facade over the implementation: build a
// cluster, generate a workload, profile it into a scheduling
// instance, plan with any scheduler, and replay the plan on the
// discrete-event simulator or the in-process multi-goroutine testbed.
//
// A minimal end-to-end run:
//
//	cl := hare.TestbedCluster()
//	specs, in, models, _ := hare.BuildWorkload(hare.WorkloadConfig{Jobs: 16, Seed: 1}, cl)
//	_ = specs
//	plan, _ := hare.NewScheduler().Schedule(in)
//	res, _ := hare.Simulate(in, plan, cl, models, hare.SimOptions{})
//	fmt.Println(res.WeightedJCT)
package hare

import (
	"fmt"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/faults"
	"hare/internal/model"
	"hare/internal/obs"
	"hare/internal/profile"
	"hare/internal/sched"
	"hare/internal/sim"
	"hare/internal/switching"
	"hare/internal/testbed"
	"hare/internal/trace"
	"hare/internal/workload"
)

// Re-exported domain types. See the internal packages for full
// documentation of each.
type (
	// Job is one DML training job (arrival, weight, rounds, scale).
	Job = core.Job
	// JobID indexes jobs within an Instance.
	JobID = core.JobID
	// TaskRef names one task: (job, round, index).
	TaskRef = core.TaskRef
	// Instance is an offline scheduling problem: jobs plus per-(job,
	// GPU) training and synchronization times.
	Instance = core.Instance
	// Schedule is a solution: one (GPU, start) placement per task.
	Schedule = core.Schedule
	// Cluster is a heterogeneous GPU fleet.
	Cluster = cluster.Cluster
	// GPUType describes one GPU product (V100, T4, K80, M60).
	GPUType = cluster.GPUType
	// Model is one deep-learning workload from the paper's Table 2.
	Model = model.Model
	// Algorithm is a scheduling algorithm (Hare or a baseline).
	Algorithm = sched.Algorithm
	// SimOptions configures simulator replay.
	SimOptions = sim.Options
	// SimResult is the simulator's realized outcome.
	SimResult = sim.Result
	// TestbedOptions configures the in-process testbed.
	TestbedOptions = testbed.Options
	// TestbedResult is the testbed's measured outcome.
	TestbedResult = testbed.Result
	// SwitchScheme selects a task-switching cost model.
	SwitchScheme = switching.Scheme
	// WorkloadSpec is one generated job with its model parameters.
	WorkloadSpec = workload.Spec
	// HeterogeneityLevel selects a Fig. 16 fleet preset.
	HeterogeneityLevel = cluster.HeterogeneityLevel
	// ClusterSpec requests n GPUs of one type when building a fleet.
	ClusterSpec = cluster.Spec
	// FaultPlan is a deterministic fault-injection plan (transient
	// failures, permanent GPU failures, crashes, stragglers) shared by
	// the simulator, the testbed, and the distributed control plane.
	FaultPlan = faults.Plan
)

// NewSchedule returns an empty schedule for hand-built plans, shaped
// by the instance it plans: one slot per task.
func NewSchedule(in *Instance) *Schedule { return core.NewSchedule(in) }

// SaveSchedule persists a plan as JSON (the file analogue of the task
// sequences the scheduler pushes to executors).
func SaveSchedule(s *Schedule, path string) error { return core.SaveSchedule(s, path) }

// LoadSchedule reads a plan written by SaveSchedule for the instance
// in, rejecting any placement the instance cannot hold.
func LoadSchedule(in *Instance, path string) (*Schedule, error) { return core.LoadSchedule(in, path) }

// V100 is the fastest GPU type of the paper's testbed.
var V100 = cluster.V100

// Switching schemes (Table 3).
const (
	SwitchDefault    = switching.Default
	SwitchPipeSwitch = switching.PipeSwitch
	SwitchHare       = switching.Hare
)

// Heterogeneity presets (Fig. 16).
const (
	LowHeterogeneity  = cluster.LowHeterogeneity
	MidHeterogeneity  = cluster.MidHeterogeneity
	HighHeterogeneity = cluster.HighHeterogeneity
)

// TestbedCluster returns the paper's 15-GPU evaluation fleet
// (8 V100 + 4 T4 + 1 K80 + 2 M60, 25 Gbps Ethernet).
func TestbedCluster() *Cluster { return cluster.Testbed() }

// HeterogeneousCluster returns an n-GPU fleet at one of the paper's
// Fig. 16 heterogeneity levels.
func HeterogeneousCluster(level cluster.HeterogeneityLevel, n int) *Cluster {
	return cluster.Heterogeneous(level, n)
}

// NewCluster builds a fleet from explicit (type, count) specs.
func NewCluster(specs []cluster.Spec, gpusPerHost int) *Cluster {
	return cluster.New(specs, gpusPerHost)
}

// NewScheduler returns the Hare scheduler (Algorithm 1 with the
// heterogeneity-aware earliest-finish GPU pick).
func NewScheduler() Algorithm { return sched.NewHare() }

// NewOnlineScheduler returns the non-clairvoyant Hare variant that
// re-plans at every job arrival — the dynamic-jobs extension the
// paper's limitations section calls for.
func NewOnlineScheduler() Algorithm { return sched.NewOnlineHare() }

// Schedulers returns Hare followed by the paper's four baselines:
// Gavel_FIFO, SRTF, Sched_Homo and Sched_Allox.
func Schedulers() []Algorithm { return sched.All() }

// SchedulerByName resolves a scheduler from its figure-legend name:
// the five of Schedulers, the related-work baselines (Gandiva_RR,
// Tiresias_LAS, Themis_Fair) and the Hare variants (Hare-online,
// Hare-EA, Hare-strict).
func SchedulerByName(name string) (Algorithm, error) { return sched.ByName(name) }

// ModelZoo returns the eight Table 2 workload models.
func ModelZoo() []*Model { return model.Zoo() }

// ModelByName resolves one model by its Table 2 name.
func ModelByName(name string) (*Model, error) { return model.ByName(name) }

// WorkloadConfig shapes BuildWorkload.
type WorkloadConfig struct {
	// Jobs is the number of jobs to generate (required).
	Jobs int
	// Seed makes the workload deterministic.
	Seed int64
	// HorizonSeconds spreads arrivals Google-trace-style over this
	// window; 0 means all jobs arrive at time zero.
	HorizonSeconds float64
	// RoundsScale shrinks (or grows) every job's round count;
	// defaults to 1 (paper-size jobs).
	RoundsScale float64
	// BatchScale multiplies every model's default batch size
	// (Fig. 19's B/B0 knob); defaults to 1.
	BatchScale float64
	// Mix overrides the default 25 %-per-class job mix.
	Mix workload.Mix
	// Arrivals, when set, supplies explicit arrival times (e.g. from
	// GoogleArrivals) and overrides HorizonSeconds; its length must
	// equal Jobs.
	Arrivals []float64
}

// GoogleArrivals loads job arrival times from a Google cluster-data
// job_events CSV file (the trace the paper replays), taking the first
// n SUBMIT events (all when n ≤ 0) and rescaling them onto horizon
// seconds (no rescale when ≤ 0). Use with WorkloadConfig.Arrivals.
func GoogleArrivals(path string, n int, horizon float64) ([]float64, error) {
	return trace.LoadGoogleArrivals(path, n, horizon)
}

// BuildWorkload generates a deterministic job population on the
// cluster and profiles it into a scheduling instance. It returns the
// generated specs, the instance, and the per-job models (needed for
// switching-aware simulation).
func BuildWorkload(cfg WorkloadConfig, cl *Cluster) ([]*WorkloadSpec, *Instance, []*Model, error) {
	if cfg.Jobs <= 0 {
		return nil, nil, nil, fmt.Errorf("hare: WorkloadConfig.Jobs must be positive, got %d", cfg.Jobs)
	}
	if cfg.RoundsScale == 0 {
		cfg.RoundsScale = 1
	}
	if cfg.BatchScale == 0 {
		cfg.BatchScale = 1
	}
	arrivals := cfg.Arrivals
	if arrivals != nil && len(arrivals) != cfg.Jobs {
		return nil, nil, nil, fmt.Errorf("hare: %d arrivals for %d jobs", len(arrivals), cfg.Jobs)
	}
	if arrivals == nil && cfg.HorizonSeconds > 0 {
		arrivals = trace.Arrivals(cfg.Jobs, cfg.HorizonSeconds, cfg.Seed+1)
	}
	specs := workload.Generate(workload.Options{
		NumJobs:     cfg.Jobs,
		Mix:         cfg.Mix,
		Arrivals:    arrivals,
		BatchScale:  cfg.BatchScale,
		RoundsScale: cfg.RoundsScale,
		MaxSync:     cl.Size(),
		Seed:        cfg.Seed + 2,
	})
	in, models, err := workload.BuildInstance(specs, cl, cfg.Seed+3)
	return specs, in, models, err
}

// LoadWorkload reads an explicit job list from a JSON workload file
// (see internal/workload.FileJob for the format) and profiles it into
// an instance on the cluster. RegisterModel-ed architectures are
// accepted alongside the Table 2 zoo.
func LoadWorkload(path string, cl *Cluster) ([]*WorkloadSpec, *Instance, []*Model, error) {
	specs, err := workload.LoadSpecs(path, cl.Size())
	if err != nil {
		return nil, nil, nil, err
	}
	in, models, err := workload.BuildInstance(specs, cl, 0)
	return specs, in, models, err
}

// SaveWorkload writes specs to a JSON workload file that LoadWorkload
// reads back.
func SaveWorkload(path string, specs []*WorkloadSpec) error {
	return workload.SaveSpecs(path, specs)
}

// RegisterModel adds a user-defined model to the zoo (see
// internal/model.Register for the calibration fields it validates).
func RegisterModel(m *Model) error { return model.Register(m) }

// Simulate replays a plan on the discrete-event simulator. Pass nil
// cl/models to replay without switching overheads.
func Simulate(in *Instance, plan *Schedule, cl *Cluster, models []*Model, opts SimOptions) (*SimResult, error) {
	return sim.Run(in, plan, cl, models, opts)
}

// RunTestbed executes a plan on the in-process multi-goroutine
// testbed: real SGD workers, parameter servers and checkpointing on a
// scaled wall clock, or on a virtual one at TimeScale 0. All reported
// timings are measured.
func RunTestbed(in *Instance, plan *Schedule, cl *Cluster, models []*Model, opts TestbedOptions) (*TestbedResult, error) {
	return testbed.Run(in, plan, cl, models, opts)
}

// Validate checks a schedule against the paper's feasibility
// constraints (4)–(8).
func Validate(in *Instance, plan *Schedule) error {
	return core.ValidateSchedule(in, plan)
}

// Observability (see internal/obs and docs/OBSERVABILITY.md): engines
// and schedulers emit structured events through a Recorder; the CLIs
// turn a captured run into a Chrome trace, a JSONL stream and a
// critical-path attribution (haresim -trace-out/-events-out/-attrib-out).
//
// Recorder fans events out to its sinks; a nil *Recorder is a valid
// no-op, so instrumented paths cost nothing when tracing is off.
type Recorder = obs.Recorder

// SetSchedulerRecorder attaches a recorder to an algorithm that
// supports decision tracing (Hare, Hare-EA, Hare-strict and
// Hare-online); it reports whether the algorithm accepted it.
func SetSchedulerRecorder(a Algorithm, r *Recorder) bool {
	type recordable interface{ SetRecorder(*obs.Recorder) }
	if ra, ok := a.(recordable); ok {
		ra.SetRecorder(r)
		return true
	}
	return false
}

// SwitchBreakdown itemizes one task switch (cleanup, context,
// initialization, transfer).
type SwitchBreakdown = switching.Breakdown

// SwitchCost models the cost of switching a GPU from a task of prev
// to a task of next under the given scheme. prev may be nil (cold
// start); nextResident marks next's weights as already on the device
// (speculative memory hit).
func SwitchCost(scheme SwitchScheme, gpu GPUType, prev, next *Model, nextResident bool) SwitchBreakdown {
	return switching.Cost(scheme, gpu, prev, next, nextResident)
}

// SyncTime returns a model's per-round synchronization time (push +
// pull of its gradients/parameters) over a network of netBps bits per
// second with syncScale parallel workers.
func SyncTime(m *Model, netBps float64, syncScale int) float64 {
	return profile.SyncTime(m, netBps, syncScale)
}
