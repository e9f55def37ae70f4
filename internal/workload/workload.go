// Package workload generates DML job populations for experiments: the
// Table 2 model mix (25 % CV, 25 % NLP, 25 % Speech, 25 % Rec by
// default), per-job round counts, synchronization scales, weights, and
// arrival times. All generation is deterministic in the seed.
package workload

import (
	"fmt"
	"sort"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/model"
	"hare/internal/profile"
	"hare/internal/stats"
)

// Spec is one generated job: core metadata plus the model/batch
// parameters the profiler needs. It implements profile.JobSpec.
type Spec struct {
	Job        *core.Job
	Model      string
	Batch      float64 // batch-size multiplier vs. the model default (B/B0)
	Sync       int     // |D_r|
	ClassOfJob model.Class
}

// ModelName implements profile.JobSpec.
func (s *Spec) ModelName() string { return s.Model }

// BatchScale implements profile.JobSpec.
func (s *Spec) BatchScale() float64 { return s.Batch }

// SyncScale implements profile.JobSpec.
func (s *Spec) SyncScale() int { return s.Sync }

// Mix is the probability weight of each workload class. Weights need
// not sum to 1; they are normalized at sampling time.
type Mix map[model.Class]float64

// DefaultMix is Table 2's default: every class at 25 %.
func DefaultMix() Mix {
	return Mix{model.CV: 0.25, model.NLP: 0.25, model.Speech: 0.25, model.Rec: 0.25}
}

// Boost returns a copy of the mix with class c's weight set to frac
// and the other classes sharing the remainder in their original
// proportions — the knob turned by the paper's Fig. 17 sweep.
func (m Mix) Boost(c model.Class, frac float64) Mix {
	if frac < 0 || frac > 1 {
		panic(fmt.Sprintf("workload: boost fraction %g outside [0,1]", frac))
	}
	// Iterate classes in sorted order: summing float weights in map
	// order would make the normalized mix differ in the last ulp
	// between runs.
	classes := make([]model.Class, 0, len(m))
	for cl := range m {
		classes = append(classes, cl)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	var otherTotal float64
	for _, cl := range classes {
		if cl != c {
			otherTotal += m[cl]
		}
	}
	out := make(Mix, len(m))
	for _, cl := range classes {
		if cl == c {
			out[cl] = frac
		} else if otherTotal > 0 {
			out[cl] = m[cl] / otherTotal * (1 - frac)
		}
	}
	return out
}

// Options configures the generator.
type Options struct {
	// NumJobs is the number of jobs to generate.
	NumJobs int
	// Mix is the class mix; DefaultMix when nil.
	Mix Mix
	// Arrivals supplies the n job arrival times, sorted ascending.
	// When nil, all jobs arrive at time 0.
	Arrivals []float64
	// BatchScale multiplies every model's default batch size
	// (Fig. 19's B/B0 knob). Defaults to 1.
	BatchScale float64
	// RoundsScale multiplies every model's base round count; it
	// shrinks workloads for fast tests. Defaults to 1.
	RoundsScale float64
	// MaxSync caps the per-job synchronization scale (e.g. at the
	// cluster size). 0 means no cap.
	MaxSync int
	// Seed drives all sampling.
	Seed int64
}

// Generate produces a deterministic job population. Job IDs are dense
// in arrival order. Per-job randomization: the model is sampled from
// the class mix (uniform within the class), rounds vary ±30 % around
// the model's base, the sync scale varies between 1× and 2× the
// model's base, and weights are uniform on [1, 4] — matching the
// paper's weighted-JCT objective where weights encode job priority.
func Generate(opts Options) []*Spec {
	if opts.NumJobs <= 0 {
		panic(fmt.Sprintf("workload: NumJobs must be positive, got %d", opts.NumJobs))
	}
	mix := opts.Mix
	if mix == nil {
		mix = DefaultMix()
	}
	if opts.BatchScale == 0 {
		opts.BatchScale = 1
	}
	if opts.RoundsScale == 0 {
		opts.RoundsScale = 1
	}
	if opts.Arrivals != nil && len(opts.Arrivals) != opts.NumJobs {
		panic(fmt.Sprintf("workload: %d arrivals for %d jobs", len(opts.Arrivals), opts.NumJobs))
	}

	rng := stats.New(opts.Seed)
	classes := model.Classes()
	weights := make([]float64, len(classes))
	for i, c := range classes {
		weights[i] = mix[c]
	}

	specs := make([]*Spec, opts.NumJobs)
	for i := 0; i < opts.NumJobs; i++ {
		class := classes[rng.WeightedChoice(weights)]
		candidates := model.ByClass(class)
		md := candidates[rng.Intn(len(candidates))]

		rounds := int(float64(md.RoundsBase) * opts.RoundsScale * rng.Uniform(0.7, 1.3))
		if rounds < 1 {
			rounds = 1
		}
		scale := md.ScaleBase + rng.Intn(md.ScaleBase+1)
		if opts.MaxSync > 0 && scale > opts.MaxSync {
			scale = opts.MaxSync
		}
		if scale < 1 {
			scale = 1
		}
		arrival := 0.0
		if opts.Arrivals != nil {
			arrival = opts.Arrivals[i]
		}
		job := &core.Job{
			ID:      core.JobID(i),
			Name:    fmt.Sprintf("job-%d(%s)", i, md.Name),
			Model:   md.Name,
			Weight:  rng.Uniform(1, 4),
			Arrival: arrival,
			Rounds:  rounds,
			Scale:   scale,
		}
		specs[i] = &Spec{
			Job:        job,
			Model:      md.Name,
			Batch:      opts.BatchScale,
			Sync:       scale,
			ClassOfJob: class,
		}
	}
	return specs
}

// TenantSeedStride separates per-tenant seed spaces in
// GenerateTenants. It is a large prime so tenant streams never
// collide for realistic tenant counts or seed offsets.
const TenantSeedStride = 1000003

// GenerateTenants scales a population to many tenants: tenant t
// receives an independent population drawn from base with seed
// base.Seed + t*TenantSeedStride, and job IDs are renumbered to be
// globally dense in (tenant, local order). When base.Arrivals is set,
// every tenant shares the same arrival pattern. This is the
// trace-scale knob behind the million-job replay benchmarks: the
// tenants are mutually independent by construction, so a per-tenant
// schedule decomposes and the simulator can replay tenants in
// parallel.
func GenerateTenants(base Options, tenants int) [][]*Spec {
	if tenants <= 0 {
		panic(fmt.Sprintf("workload: tenants must be positive, got %d", tenants))
	}
	out := make([][]*Spec, tenants)
	for t := 0; t < tenants; t++ {
		opts := base
		opts.Seed = base.Seed + int64(t)*TenantSeedStride
		specs := Generate(opts)
		for i, s := range specs {
			s.Job.ID = core.JobID(t*base.NumJobs + i)
			s.Job.Name = fmt.Sprintf("tenant-%d/%s", t, s.Job.Name)
		}
		out[t] = specs
	}
	return out
}

// Jobs extracts the core.Job slice from specs, in order.
func Jobs(specs []*Spec) []*core.Job {
	out := make([]*core.Job, len(specs))
	for i, s := range specs {
		out[i] = s.Job
	}
	return out
}

// BuildInstance profiles specs on a cluster (profiler noise seeded by
// seed) and returns the scheduling instance with each job's model.
func BuildInstance(specs []*Spec, cl *cluster.Cluster, seed int64) (*core.Instance, []*model.Model, error) {
	jobSpecs := make([]profile.JobSpec, len(specs))
	for i, s := range specs {
		jobSpecs[i] = s
	}
	in, err := profile.New(profile.Options{Seed: seed}).BuildInstance(Jobs(specs), jobSpecs, cl)
	if err != nil {
		return nil, nil, err
	}
	models := make([]*model.Model, len(specs))
	for i, s := range specs {
		models[i] = model.MustByName(s.Model)
	}
	return in, models, nil
}
