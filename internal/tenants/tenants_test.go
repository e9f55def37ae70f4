package tenants

import (
	"reflect"
	"testing"

	"hare/internal/core"
	"hare/internal/sim"
)

func TestBuildDeterministicAndReplayable(t *testing.T) {
	cfg := Config{Tenants: 3, JobsPerTenant: 5, GPUsPerTenant: 6, RoundsScale: 0.05, Seed: 7}
	a, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumJobs() != 15 || a.Instance.NumGPUs != 18 || len(a.TenantOfJob) != 15 {
		t.Fatalf("unexpected shape: %d jobs, %d GPUs", a.NumJobs(), a.Instance.NumGPUs)
	}
	for j, job := range a.Instance.Jobs {
		if int(job.ID) != j {
			t.Fatalf("job %d has ID %d; want dense global ids", j, job.ID)
		}
		if want := j / 5; a.TenantOfJob[j] != want {
			t.Fatalf("job %d assigned tenant %d, want %d", j, a.TenantOfJob[j], want)
		}
	}
	if !reflect.DeepEqual(a.Schedule, b.Schedule) {
		t.Fatal("build not deterministic: the schedules differ")
	}

	// Tenant partitions must be disjoint: every placement of a job
	// stays on its tenant's GPUs.
	a.Schedule.Each(func(tref core.TaskRef, p core.Placement) {
		tenant := a.TenantOfJob[tref.Job]
		if p.GPU/6 != tenant {
			t.Fatalf("task %v of tenant %d placed on GPU %d outside its partition", tref, tenant, p.GPU)
		}
	})

	res, err := sim.Run(a.Instance, a.Schedule, a.Cluster, a.Models, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 || res.WeightedJCT <= 0 {
		t.Fatalf("degenerate replay: makespan=%g wjct=%g", res.Makespan, res.WeightedJCT)
	}
}

func TestBuildDefaults(t *testing.T) {
	tr, err := Build(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumJobs() != 4*12 || tr.Instance.NumGPUs != 4*8 {
		t.Fatalf("defaults produced %d jobs on %d GPUs", tr.NumJobs(), tr.Instance.NumGPUs)
	}
}
