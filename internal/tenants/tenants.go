// Package tenants builds large multi-tenant replay traces: many
// mutually independent tenant sub-problems — each its own workload,
// profiled instance, GPU partition, and Hare schedule — merged into
// one global (instance, schedule, cluster) triple. Because tenants
// never share a GPU or a job, the merged schedule's contact graph has
// one connected component per tenant, which is exactly the shape the
// simulator's sharded replay path (sim.Options.Parallel) exploits.
// The package exists to scale benchmarks and equivalence tests to
// million-job traces without inventing synthetic schedules by hand.
package tenants

import (
	"fmt"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/model"
	"hare/internal/profile"
	"hare/internal/sched"
	"hare/internal/trace"
	"hare/internal/workload"
)

// Config sizes a multi-tenant trace. The zero value is upgraded to a
// small smoke-test scale by Defaults.
type Config struct {
	// Tenants is the number of independent tenants (= shards).
	Tenants int
	// JobsPerTenant is each tenant's job count.
	JobsPerTenant int
	// GPUsPerTenant is each tenant's private GPU partition size; every
	// partition is at high heterogeneity.
	GPUsPerTenant int
	// HorizonSeconds spreads each tenant's arrivals.
	HorizonSeconds float64
	// RoundsScale multiplies per-model round counts.
	RoundsScale float64
	// Seed drives all randomness; tenant t draws from seed
	// Seed + t*workload.TenantSeedStride.
	Seed int64
}

// Defaults fills in a small smoke-test scale.
func (c Config) Defaults() Config {
	if c.Tenants == 0 {
		c.Tenants = 4
	}
	if c.JobsPerTenant == 0 {
		c.JobsPerTenant = 12
	}
	if c.GPUsPerTenant == 0 {
		c.GPUsPerTenant = 8
	}
	if c.RoundsScale == 0 {
		c.RoundsScale = 0.1
	}
	if c.HorizonSeconds == 0 {
		c.HorizonSeconds = 300 * c.RoundsScale
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// Trace is a merged multi-tenant replay problem. Instance, Schedule,
// Cluster and Models feed sim.Run directly; TenantOfJob maps each
// global job back to its tenant.
type Trace struct {
	Instance    *core.Instance
	Schedule    *core.Schedule
	Cluster     *cluster.Cluster
	Models      []*model.Model
	TenantOfJob []int
}

// NumJobs returns the global job count.
func (tr *Trace) NumJobs() int { return len(tr.Instance.Jobs) }

// Build constructs the merged trace. Per tenant it generates a
// workload, profiles it against the tenant's private partition, and
// plans it with Hare; the per-tenant schedules are then re-indexed
// onto the global GPU/job id spaces. Off-partition matrix columns are
// filled with the same-position profile of the tenant's own partition
// (every partition has an identical type layout), so the global
// instance validates while the schedule never touches those columns.
func Build(cfg Config) (*Trace, error) {
	cfg = cfg.Defaults()
	if cfg.Tenants < 1 || cfg.JobsPerTenant < 1 || cfg.GPUsPerTenant < 1 {
		return nil, fmt.Errorf("tenants: config %+v has non-positive dimensions", cfg)
	}
	subCl := cluster.Heterogeneous(cluster.HighHeterogeneity, cfg.GPUsPerTenant)
	numGPUs := cfg.Tenants * cfg.GPUsPerTenant
	numJobs := cfg.Tenants * cfg.JobsPerTenant

	pops := workload.GenerateTenants(workload.Options{
		NumJobs:     cfg.JobsPerTenant,
		RoundsScale: cfg.RoundsScale,
		MaxSync:     subCl.Size(),
		Seed:        cfg.Seed + 2,
	}, cfg.Tenants)

	tr := &Trace{
		Instance: &core.Instance{
			Jobs:    make([]*core.Job, 0, numJobs),
			NumGPUs: numGPUs,
			Train:   make([][]float64, 0, numJobs),
			Sync:    make([][]float64, 0, numJobs),
		},
		Cluster:     &cluster.Cluster{NetworkBps: subCl.NetworkBps, IntraHostBps: subCl.IntraHostBps},
		Models:      make([]*model.Model, 0, numJobs),
		TenantOfJob: make([]int, 0, numJobs),
	}
	hostsPerTenant := subCl.Hosts
	plans := make([]*core.Schedule, cfg.Tenants)
	for t := 0; t < cfg.Tenants; t++ {
		seed := cfg.Seed + int64(t)*workload.TenantSeedStride
		specs := pops[t]
		arr := trace.Arrivals(cfg.JobsPerTenant, cfg.HorizonSeconds, seed+1)
		for i, s := range specs {
			s.Job.Arrival = arr[i]
		}

		// Plan the tenant in its local id space: dense local job IDs
		// ascending with the global ones, private GPUs 0..G-1.
		localJobs := make([]*core.Job, len(specs))
		jobSpecs := make([]profile.JobSpec, len(specs))
		for i, s := range specs {
			j := *s.Job
			j.ID = core.JobID(i)
			localJobs[i] = &j
			jobSpecs[i] = s
		}
		prof := profile.New(profile.Options{Seed: seed + 3})
		subIn, err := prof.BuildInstance(localJobs, jobSpecs, subCl)
		if err != nil {
			return nil, fmt.Errorf("tenants: tenant %d: %w", t, err)
		}
		if plans[t], err = sched.NewHare().Schedule(subIn); err != nil {
			return nil, fmt.Errorf("tenants: tenant %d: %w", t, err)
		}

		gpuOff := t * cfg.GPUsPerTenant
		for i, s := range specs {
			tr.Instance.Jobs = append(tr.Instance.Jobs, s.Job)
			tr.Models = append(tr.Models, model.MustByName(s.Model))
			tr.TenantOfJob = append(tr.TenantOfJob, t)
			// Off-partition columns repeat the tenant's own profile at
			// the same within-partition position (identical GPU type).
			train := make([]float64, numGPUs)
			sync := make([]float64, numGPUs)
			for t2 := 0; t2 < cfg.Tenants; t2++ {
				copy(train[t2*cfg.GPUsPerTenant:], subIn.Train[i])
				copy(sync[t2*cfg.GPUsPerTenant:], subIn.Sync[i])
			}
			tr.Instance.Train = append(tr.Instance.Train, train)
			tr.Instance.Sync = append(tr.Instance.Sync, sync)
		}
		for _, g := range subCl.GPUs {
			tr.Cluster.GPUs = append(tr.Cluster.GPUs, cluster.GPU{
				ID:   g.ID + gpuOff,
				Type: g.Type,
				Host: g.Host + t*hostsPerTenant,
			})
		}
	}
	tr.Cluster.Hosts = cfg.Tenants * hostsPerTenant
	if err := tr.Instance.Validate(); err != nil {
		return nil, fmt.Errorf("tenants: merged instance invalid: %w", err)
	}
	// The merged schedule is shaped by the merged instance: tenant t's
	// jobs and GPUs shift by t times its partition.
	tr.Schedule = core.NewSchedule(tr.Instance)
	for t, plan := range plans {
		plan.Each(func(tref core.TaskRef, p core.Placement) {
			tref.Job += core.JobID(t * cfg.JobsPerTenant)
			tr.Schedule.Place(tref, p.GPU+t*cfg.GPUsPerTenant, p.Start)
		})
	}
	if err := core.ValidateSchedule(tr.Instance, tr.Schedule); err != nil {
		return nil, fmt.Errorf("tenants: merged schedule invalid: %w", err)
	}
	return tr, nil
}
