package experiments

import (
	"fmt"
	"math"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/model"
	"hare/internal/profile"
	"hare/internal/sched"
	"hare/internal/sim"
	"hare/internal/stats"
	"hare/internal/switching"
	"hare/internal/testbed"
)

// Fig1Row is one scheduling policy's outcome on the toy example.
type Fig1Row struct {
	Policy      string
	TotalJCT    float64 // unweighted Σ C_n, as in the figure
	Makespan    float64
	Completions []float64
}

// Fig1Toy reproduces the paper's Fig. 1 toy example: three jobs on
// three heterogeneous GPUs under (a) heterogeneity-oblivious
// scheduling, (b) job-level heterogeneity-aware scheduling (AlloX),
// and (c) Hare's joint inter/intra-job scheduling. The figure's exact
// per-GPU batch-time table is an image in the paper; the instance here
// is reconstructed to the same structure (J2 serial on the fast GPU,
// J3 synchronizing every two tasks, J1 two parallel tasks) and the
// qualitative result — (c) beats (b) beats (a) in total JCT and
// makespan — is asserted by tests.
func Fig1Toy() ([]Fig1Row, *core.Instance, error) {
	// GPU0 is the fast GPU, GPU1/GPU2 the slower pair — matching the
	// figure's setup where J2 takes the whole fast GPU while J3
	// spreads its synchronized pairs across the other two.
	in := &core.Instance{
		NumGPUs: 3,
		Jobs: []*core.Job{
			{ID: 0, Name: "J1", Weight: 1, Rounds: 1, Scale: 2},
			{ID: 1, Name: "J2", Weight: 1, Rounds: 3, Scale: 1},
			{ID: 2, Name: "J3", Weight: 1, Rounds: 2, Scale: 2},
		},
		Train: [][]float64{
			{2.5, 1.5, 1.5}, // J1 is input-bound and dislikes GPU0
			{1.0, 2.0, 2.5}, // J2 strongly prefers the fast GPU
			{1.5, 1.0, 1.0}, // J3 pairs well on GPU1+GPU2
		},
		Sync: [][]float64{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}},
	}
	algos := []sched.Algorithm{sched.NewSchedHomo(), sched.NewSchedAllox(), sched.NewHare()}
	labels := []string{"(a) heterogeneity-oblivious", "(b) job-level aware (AlloX)", "(c) Hare"}
	rows := make([]Fig1Row, 0, len(algos))
	for i, a := range algos {
		s, err := a.Schedule(in)
		if err != nil {
			return nil, nil, err
		}
		comps := s.JobCompletions(in)
		var total float64
		for _, c := range comps {
			total += c
		}
		rows = append(rows, Fig1Row{
			Policy:      labels[i],
			TotalJCT:    total,
			Makespan:    s.Makespan(in),
			Completions: comps,
		})
	}
	return rows, in, nil
}

// Fig2Row is one model's training speedup per GPU type (vs. K80).
type Fig2Row struct {
	Model   string
	Speedup map[string]float64
}

// Fig2Speedups reproduces Fig. 2: the per-mini-batch training speedup
// of each Table 2 model on M60, T4 and V100 relative to K80. The
// compute-bound CNNs reach the hardware speedup; the input-bound
// graph models saturate near 2× even on V100.
func Fig2Speedups() []Fig2Row {
	gpus := []cluster.GPUType{cluster.K80, cluster.M60, cluster.T4, cluster.V100}
	rows := make([]Fig2Row, 0, 8)
	for _, m := range model.Zoo() {
		r := Fig2Row{Model: m.Name, Speedup: make(map[string]float64, len(gpus))}
		for _, g := range gpus {
			r.Speedup[g.Name] = m.Speedup(g.Speed)
		}
		rows = append(rows, r)
	}
	return rows
}

// ComputeUtilization returns the fraction of a mini-batch during
// which the GPU's compute units are actually busy for the given model
// on the given GPU — the quantity behind Fig. 3's "GraphSAGE keeps a
// V100 under 30 % busy": the fixed input-pipeline portion of the
// batch leaves the device idle.
func ComputeUtilization(m *model.Model, g cluster.GPUType) float64 {
	compute := m.K80BatchSeconds * m.ComputeFrac / g.Speed
	total := m.BatchSeconds(g.Speed, 1)
	return compute / total
}

// Fig3Row reports the compute utilization of a model across GPUs.
type Fig3Row struct {
	Model string
	Util  map[string]float64
}

// Fig3Util reproduces Fig. 3: GPU utilization when training GraphSAGE
// (vs. ResNet50 for contrast) on each GPU type.
func Fig3Util() []Fig3Row {
	gpus := []cluster.GPUType{cluster.K80, cluster.M60, cluster.T4, cluster.V100}
	var rows []Fig3Row
	for _, name := range []string{"GraphSAGE", "ResNet50"} {
		m := model.MustByName(name)
		r := Fig3Row{Model: name, Util: make(map[string]float64, len(gpus))}
		for _, g := range gpus {
			r.Util[g.Name] = ComputeUtilization(m, g)
		}
		rows = append(rows, r)
	}
	return rows
}

// Fig5Row is ResNet152's epoch time on one GPU combination.
type Fig5Row struct {
	Combo     string
	EpochTime float64
	// RoundTime is the gang-synchronized per-round time (the epoch is
	// RoundsPerEpoch of them).
	RoundTime float64
}

// Fig5RoundsPerEpoch is the number of synchronized rounds per epoch
// used to scale Fig. 5's y axis.
const Fig5RoundsPerEpoch = 25

// Fig5EpochTime reproduces Fig. 5: epoch time of ResNet152 under five
// 4-GPU combinations. Mixing fast GPUs with K80s brings no speedup —
// the round is gated by the slowest worker.
func Fig5EpochTime() []Fig5Row {
	m := model.MustByName("ResNet152")
	prof := profile.New(profile.Options{})
	combos := []struct {
		name string
		gpus []cluster.GPUType
	}{
		{"4xK80", []cluster.GPUType{cluster.K80, cluster.K80, cluster.K80, cluster.K80}},
		{"2xK80+2xT4", []cluster.GPUType{cluster.K80, cluster.K80, cluster.T4, cluster.T4}},
		{"2xK80+2xV100", []cluster.GPUType{cluster.K80, cluster.K80, cluster.V100, cluster.V100}},
		{"4xT4", []cluster.GPUType{cluster.T4, cluster.T4, cluster.T4, cluster.T4}},
		{"4xV100", []cluster.GPUType{cluster.V100, cluster.V100, cluster.V100, cluster.V100}},
	}
	rows := make([]Fig5Row, 0, len(combos))
	syncT := profile.SyncTime(m, cluster.DefaultNetworkBps, 4)
	for _, c := range combos {
		var round float64
		for _, g := range c.gpus {
			round = math.Max(round, prof.TrainTime(m, g, 1)+syncT)
		}
		rows = append(rows, Fig5Row{Combo: c.name, RoundTime: round, EpochTime: round * Fig5RoundsPerEpoch})
	}
	return rows
}

// Fig6Row is one GPU's measured utilization in the mixed gang.
type Fig6Row struct {
	GPU  string
	Util float64
}

// Fig6Util reproduces Fig. 6: per-GPU utilization when one ResNet152
// job gang-trains across 2 K80s and 2 V100s — the K80s stay busy
// while the V100s idle at the synchronization barrier.
func Fig6Util(cfg Config) ([]Fig6Row, error) {
	cfg = cfg.Defaults()
	cl := cluster.New([]cluster.Spec{{Type: cluster.K80, Count: 2}, {Type: cluster.V100, Count: 2}}, 4)
	m := model.MustByName("ResNet152")
	prof := profile.New(profile.Options{})
	rounds := int(20 * cfg.RoundsScale)
	if rounds < 2 {
		rounds = 2
	}
	job := &core.Job{ID: 0, Name: "resnet152", Model: m.Name, Weight: 1, Rounds: rounds, Scale: 4}
	in := &core.Instance{Jobs: []*core.Job{job}, NumGPUs: 4}
	syncT := profile.SyncTime(m, cl.NetworkBps, 4)
	tr := make([]float64, 4)
	sy := make([]float64, 4)
	for _, g := range cl.GPUs {
		tr[g.ID] = prof.TrainTime(m, g.Type, 1)
		sy[g.ID] = syncT
	}
	in.Train, in.Sync = [][]float64{tr}, [][]float64{sy}

	s, err := sched.NewGavelFIFO().Schedule(in)
	if err != nil {
		return nil, err
	}
	// No cluster or models: a pure plan replay that charges no switching.
	res, err := sim.Run(in, s, nil, nil, sim.Options{})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig6Row, 4)
	for i, g := range cl.GPUs {
		rows[i] = Fig6Row{GPU: fmt.Sprintf("%s#%d", g.Type.Name, g.ID), Util: res.Utilization[g.ID]}
	}
	return rows, nil
}

// Fig7Row is the Ω switching-cost ratio of one alternating pair.
type Fig7Row struct {
	Setting string
	Omega   map[string]float64 // per scheme
}

// Fig7SwitchRatio reproduces Fig. 7: the ratio Ω of switching time to
// combined batch training time for three alternating task pairs on a
// V100, under each switching scheme. The unoptimized default is
// roughly an order of magnitude more expensive than the training
// itself.
func Fig7SwitchRatio() []Fig7Row {
	pairs := [][2]string{
		{"GraphSAGE", "ResNet50"},
		{"FastGCN", "ResNet50"},
		{"GraphSAGE", "Bert_base"},
	}
	prof := profile.New(profile.Options{})
	rows := make([]Fig7Row, 0, len(pairs))
	for _, p := range pairs {
		a, b := model.MustByName(p[0]), model.MustByName(p[1])
		ba := prof.BatchTime(a, cluster.V100, 1)
		bb := prof.BatchTime(b, cluster.V100, 1)
		r := Fig7Row{Setting: p[0] + "+" + p[1], Omega: make(map[string]float64, 3)}
		for _, s := range switching.Schemes() {
			r.Omega[s.String()] = switching.Omega(s, cluster.V100, a, b, ba, bb)
		}
		rows = append(rows, r)
	}
	return rows
}

// Fig8Row is one time bin of V100 utilization with/without switching.
type Fig8Row struct {
	Bin          int
	SingleJob    float64 // training ResNet50 alone
	Alternating  float64 // GraphSAGE and ResNet50 alternating, default switching
	AlternatingH float64 // same alternation under Hare's fast switching
}

// Fig8SwitchingUtil reproduces Fig. 8: real-time V100 utilization
// when a single ResNet50 trains alone versus when GraphSAGE and
// ResNet50 alternate. With default switching most wall time goes to
// CUDA cleanup/initialization, capping utilization; Hare's fast
// switching restores it.
func Fig8SwitchingUtil(cfg Config) ([]Fig8Row, error) {
	cfg = cfg.Defaults()
	rounds := int(12 * cfg.RoundsScale)
	if rounds < 3 {
		rounds = 3
	}
	const bins = 20
	single, err := alternationUtil([]string{"ResNet50"}, rounds, switching.Default, bins)
	if err != nil {
		return nil, err
	}
	alt, err := alternationUtil([]string{"GraphSAGE", "ResNet50"}, rounds, switching.Default, bins)
	if err != nil {
		return nil, err
	}
	altH, err := alternationUtil([]string{"GraphSAGE", "ResNet50"}, rounds, switching.Hare, bins)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig8Row, bins)
	for i := range rows {
		rows[i] = Fig8Row{Bin: i, SingleJob: single[i], Alternating: alt[i], AlternatingH: altH[i]}
	}
	return rows, nil
}

// alternationUtil runs the named jobs strictly alternating on a
// single V100 and returns the binned busy fraction.
func alternationUtil(names []string, rounds int, scheme switching.Scheme, bins int) ([]float64, error) {
	models := make([]*model.Model, len(names))
	for i, n := range names {
		models[i] = model.MustByName(n)
	}
	res, err := rotateOnV100(models, rounds, sim.Options{
		Scheme: scheme, Speculative: scheme == switching.Hare, UtilBins: bins,
	})
	if err != nil {
		return nil, err
	}
	return res.UtilSeries[0], nil
}

// rotateOnV100 replays one job per model sharing a single V100 in
// strict rotation — j0 r0, j1 r0, j0 r1, ... — for the given rounds.
func rotateOnV100(models []*model.Model, rounds int, opts sim.Options) (*sim.Result, error) {
	cl := cluster.New([]cluster.Spec{{Type: cluster.V100, Count: 1}}, 1)
	prof := profile.New(profile.Options{})
	in := &core.Instance{NumGPUs: 1}
	for i, m := range models {
		in.Jobs = append(in.Jobs, &core.Job{
			ID: core.JobID(i), Name: m.Name, Model: m.Name, Weight: 1, Rounds: rounds, Scale: 1,
		})
		in.Train = append(in.Train, []float64{prof.TrainTime(m, cluster.V100, 1)})
		in.Sync = append(in.Sync, []float64{0})
	}
	s := core.NewSchedule(in)
	t := 0.0
	for r := 0; r < rounds; r++ {
		for j := range in.Jobs {
			s.Place(core.TaskRef{Job: core.JobID(j), Round: r, Index: 0}, 0, t)
			t += in.Train[j][0]
		}
	}
	return sim.Run(in, s, cl, models, opts)
}

// Fig11Row reports per-round timing stability of one model on the
// testbed.
type Fig11Row struct {
	Model     string
	Rounds    int
	TrainMean float64
	TrainCoV  float64 // coefficient of variation across rounds
	SyncMean  float64
	SyncCoV   float64
}

// Fig11Stability reproduces Fig. 11: per-round training and
// synchronization times of two popular models, measured on the
// (in-process) testbed, are stable across rounds — the property that
// lets the paper drop the round subscript from T^c and T^s.
func Fig11Stability(cfg Config) ([]Fig11Row, error) {
	cfg = cfg.Defaults()
	rounds := int(30 * cfg.RoundsScale)
	if rounds < 5 {
		rounds = 5
	}
	var rows []Fig11Row
	for _, name := range []string{"ResNet50", "Bert_base"} {
		m := model.MustByName(name)
		cl := cluster.New([]cluster.Spec{{Type: cluster.V100, Count: 2}}, 4)
		prof := profile.New(profile.Options{})
		job := &core.Job{ID: 0, Name: name, Model: name, Weight: 1, Rounds: rounds, Scale: 2}
		in := &core.Instance{Jobs: []*core.Job{job}, NumGPUs: 2}
		syncT := profile.SyncTime(m, cl.NetworkBps, 2)
		tt := prof.TrainTime(m, cluster.V100, 1)
		in.Train = [][]float64{{tt, tt}}
		in.Sync = [][]float64{{syncT, syncT}}
		s, err := sched.NewGavelFIFO().Schedule(in)
		if err != nil {
			return nil, err
		}
		res, err := testbed.Run(in, s, cl, []*model.Model{m}, testbed.Options{TimeScale: 2e-3})
		if err != nil {
			return nil, err
		}
		var trains, syncs []float64
		for _, rec := range res.Trace.Records {
			trains = append(trains, rec.Train)
			syncs = append(syncs, rec.Sync)
		}
		ts, ss := stats.Summarize(trains), stats.Summarize(syncs)
		rows = append(rows, Fig11Row{
			Model: name, Rounds: rounds,
			TrainMean: ts.Mean, TrainCoV: ts.CoefficientVar,
			SyncMean: ss.Mean, SyncCoV: ss.CoefficientVar,
		})
	}
	return rows, nil
}
