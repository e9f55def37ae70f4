package experiments

import (
	"fmt"
	"math"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/gpumem"
	"hare/internal/sched"
	"hare/internal/sched/relax"
	"hare/internal/sim"
	"hare/internal/stats"
	"hare/internal/switching"
)

// standardRun plans and replays a lineup on the standard large-scale
// workload: cfg.Jobs jobs on a cfg.GPUs-GPU high-heterogeneity fleet.
func standardRun(cfg Config, lineup []sched.Algorithm) ([]SchemeResult, error) {
	cfg = cfg.Defaults()
	cl := cluster.Heterogeneous(cluster.HighHeterogeneity, cfg.GPUs)
	in, _, models, err := buildWorkload(cfg, cl, cfg.Jobs, nil, 1)
	if err != nil {
		return nil, err
	}
	return runSchemes(cfg, in, cl, models, lineup)
}

// AblationEFT compares Hare's earliest-finish GPU pick against the
// paper-literal earliest-available pick (Algorithm 1 line 12) on the
// standard large-scale workload.
func AblationEFT(cfg Config) ([]SchemeResult, error) {
	return standardRun(cfg, []sched.Algorithm{sched.NewHare(), sched.NewHareEA()})
}

// AblationSync compares Hare's relaxed scale-fixed synchronization
// against the strict-gang variant (Fig. 4's comparison) on the
// standard workload.
func AblationSync(cfg Config) ([]SchemeResult, error) {
	return standardRun(cfg, []sched.Algorithm{sched.NewHare(), sched.NewHareStrict()})
}

// hareReplayOnTestbed is the memory ablations' shared set-up: a
// testbed-scale workload (the 15-GPU testbed fleet, horizon ≤ 600 s,
// ≤ 24 jobs) planned once by Hare. The returned function replays that
// one plan under Hare's switching with the given memory options.
func hareReplayOnTestbed(cfg Config) (func(sim.Options) (*sim.Result, error), error) {
	cfg = cfg.Defaults()
	cl := cluster.Testbed()
	cfg.HorizonSeconds = math.Min(cfg.HorizonSeconds, 600)
	in, _, models, err := buildWorkload(cfg, cl, min(cfg.Jobs, 24), nil, 1)
	if err != nil {
		return nil, err
	}
	plan, err := sched.NewHare().Schedule(in)
	if err != nil {
		return nil, err
	}
	return func(opts sim.Options) (*sim.Result, error) {
		opts.Scheme = switching.Hare
		return sim.Run(in, plan, cl, models, opts)
	}, nil
}

// MemoryPolicyRow compares one eviction policy.
type MemoryPolicyRow struct {
	Policy      string
	TotalSwitch float64
	Hits        int
	Misses      int
}

// AblationMemoryPolicy compares the paper's keep-latest heuristic
// against the Belady-style optimal-lookahead eviction on the same
// Hare schedule. The paper argues the heuristic "works sufficiently
// well in practice"; this measures exactly how much switching stall
// the optimal policy would recover.
func AblationMemoryPolicy(cfg Config) ([]MemoryPolicyRow, error) {
	replay, err := hareReplayOnTestbed(cfg)
	if err != nil {
		return nil, err
	}
	var rows []MemoryPolicyRow
	for _, pol := range []gpumem.Policy{gpumem.KeepLatest, gpumem.Belady} {
		res, err := replay(sim.Options{Speculative: true, MemPolicy: pol})
		if err != nil {
			return nil, err
		}
		rows = append(rows, MemoryPolicyRow{
			Policy:      pol.String(),
			TotalSwitch: res.TotalSwitch,
			Hits:        res.ResidencyHits,
			Misses:      res.SwitchCount - res.ResidencyHits,
		})
	}
	return rows, nil
}

// AblationOnline compares the offline (arrival-clairvoyant) Hare
// against the online variant that re-plans at every arrival with no
// knowledge of future jobs — the extension the paper's limitations
// section calls for. The gap measures what clairvoyance is worth.
func AblationOnline(cfg Config) ([]SchemeResult, error) {
	return standardRun(cfg, []sched.Algorithm{sched.NewHare(), sched.NewOnlineHare()})
}

// ExtendedBaselines runs the default large-scale setting with the
// paper's five schemes plus the Gandiva-style round-robin and
// Tiresias-style least-attained-service time-slicing baselines from
// the related-work lineup. Their round-granularity preemption incurs
// frequent job switches — without Hare's fast switching, those
// switches cost seconds each, which is the overhead argument of §2.2.4
// quantified end to end.
func ExtendedBaselines(cfg Config) ([]SchemeResult, error) {
	return standardRun(cfg, sched.Extended())
}

// FairnessComparison evaluates every scheme's finish-time fairness
// (Themis's ρ) and worst-case queueing delay on the standard
// large-scale workload — the paper's starvation-free design goal,
// quantified. Hare optimizes weighted JCT, not fairness, yet its
// task-granularity sharing keeps both ρ and waits competitive.
func FairnessComparison(cfg Config) ([]SchemeResult, error) {
	// The extended lineup includes Themis_Fair, the scheduler that
	// optimizes this experiment's metric directly.
	return standardRun(cfg, sched.Extended())
}

// RelaxStats summarizes the fluid-vs-exact relaxation study.
type RelaxStats struct {
	Instances int
	// FluidLEOptimal counts instances where the fluid objective
	// lower-bounds the exact optimum.
	FluidLEOptimal int
	// MeanFluidToOpt is the mean fluid/optimal objective ratio.
	MeanFluidToOpt float64
	// MeanHareToOpt is the mean Hare/optimal ratio; MaxHareToOpt the
	// worst observed.
	MeanHareToOpt float64
	MaxHareToOpt  float64
	// BoundHolds counts instances where Hare ≤ α(2+α)·OPT.
	BoundHolds int
}

// AblationRelax cross-checks the fluid relaxation against the exact
// branch-and-bound optimum on 30 randomized tiny instances: the fluid
// objective should lower-bound the optimum, and Algorithm 1 should
// stay within the paper's α(2+α) approximation factor.
func AblationRelax(seed int64) (*RelaxStats, error) {
	const instances = 30
	rng := stats.New(seed)
	st := &RelaxStats{Instances: instances}
	hare := sched.NewHare()
	for i := 0; i < instances; i++ {
		in := tinyInstance(rng.Split())
		exact, err := relax.Exact(in)
		if err != nil {
			return nil, err
		}
		if !exact.Optimal {
			return nil, fmt.Errorf("ablation: exact solver exhausted budget on instance %d", i)
		}
		fluid, err := relax.Fluid(in)
		if err != nil {
			return nil, err
		}
		if fluid.Objective <= exact.Objective+1e-9 {
			st.FluidLEOptimal++
		}
		st.MeanFluidToOpt += fluid.Objective / exact.Objective
		hs, err := hare.Schedule(in)
		if err != nil {
			return nil, err
		}
		ratio := hs.WeightedJCT(in) / exact.Objective
		st.MeanHareToOpt += ratio
		if ratio > st.MaxHareToOpt {
			st.MaxHareToOpt = ratio
		}
		alpha := in.Alpha()
		if ratio <= alpha*(2+alpha)+1e-9 {
			st.BoundHolds++
		}
	}
	st.MeanFluidToOpt /= float64(instances)
	st.MeanHareToOpt /= float64(instances)
	return st, nil
}

// tinyInstance builds an instance small enough for branch-and-bound
// (≤ 6 tasks).
func tinyInstance(rng *stats.RNG) *core.Instance {
	nm := 2 + rng.Intn(2)
	in := &core.Instance{NumGPUs: nm}
	budget := 6
	j := 0
	for budget > 0 {
		scale := 1 + rng.Intn(2)
		rounds := 1 + rng.Intn(2)
		if scale*rounds > budget {
			scale, rounds = 1, 1
		}
		budget -= scale * rounds
		job := &core.Job{
			ID: core.JobID(j), Name: "tiny", Weight: rng.Uniform(0.5, 3),
			Arrival: rng.Uniform(0, 4), Rounds: rounds, Scale: scale,
		}
		in.Jobs = append(in.Jobs, job)
		tr := make([]float64, nm)
		sy := make([]float64, nm)
		base := rng.Uniform(1, 6)
		for m := 0; m < nm; m++ {
			tr[m] = base * rng.Uniform(1, 4)
			sy[m] = base * rng.Uniform(0.05, 0.5)
		}
		in.Train = append(in.Train, tr)
		in.Sync = append(in.Sync, sy)
		j++
	}
	return in
}

// MemoryAblationRow compares one speculative-memory setting.
type MemoryAblationRow struct {
	Setting       string
	WeightedJCT   float64
	TotalSwitch   float64
	SwitchCount   int
	ResidencyHits int
}

// AblationSpeculativeMemory replays the same Hare schedule with
// speculative memory on and off, isolating the residency benefit in
// total switching stall and weighted JCT.
func AblationSpeculativeMemory(cfg Config) ([]MemoryAblationRow, error) {
	replay, err := hareReplayOnTestbed(cfg)
	if err != nil {
		return nil, err
	}
	var rows []MemoryAblationRow
	for _, speculative := range []bool{true, false} {
		res, err := replay(sim.Options{Speculative: speculative})
		if err != nil {
			return nil, err
		}
		name := "speculative-off"
		if speculative {
			name = "speculative-on"
		}
		rows = append(rows, MemoryAblationRow{
			Setting:       name,
			WeightedJCT:   res.WeightedJCT,
			TotalSwitch:   res.TotalSwitch,
			SwitchCount:   res.SwitchCount,
			ResidencyHits: res.ResidencyHits,
		})
	}
	return rows, nil
}
