package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hare/internal/stats"
)

// quickInstance wraps an Instance with a testing/quick generator so
// properties can be checked over the full input distribution.
type quickInstance struct{ in *Instance }

// Generate implements quick.Generator.
func (quickInstance) Generate(r *rand.Rand, size int) reflect.Value {
	rng := stats.New(r.Int63())
	nm := 1 + rng.Intn(4)
	nj := 1 + rng.Intn(4)
	in := &Instance{NumGPUs: nm}
	for j := 0; j < nj; j++ {
		in.Jobs = append(in.Jobs, &Job{
			ID: JobID(j), Name: "q", Weight: rng.Uniform(0.5, 4),
			Arrival: rng.Uniform(0, 8),
			Rounds:  1 + rng.Intn(3), Scale: 1 + rng.Intn(2),
		})
		tr := make([]float64, nm)
		sy := make([]float64, nm)
		for m := 0; m < nm; m++ {
			tr[m] = rng.Uniform(0.5, 6)
			sy[m] = rng.Uniform(0, 1.5)
		}
		in.Train = append(in.Train, tr)
		in.Sync = append(in.Sync, sy)
	}
	return reflect.ValueOf(quickInstance{in: in})
}

// TestQuickGeneratedInstancesValid: the generator only produces
// structurally valid instances.
func TestQuickGeneratedInstancesValid(t *testing.T) {
	f := func(q quickInstance) bool {
		return q.in.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickDispatchAlwaysFeasible: greedy dispatch over any generated
// instance satisfies constraints (4)–(8).
func TestQuickDispatchAlwaysFeasible(t *testing.T) {
	f := func(q quickInstance, seed int64) bool {
		s := greedyDispatch(q.in, stats.New(seed))
		return ValidateSchedule(q.in, s) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickObjectiveLowerBounds: for any feasible schedule, every
// job's completion is at least arrival + its critical path (rounds ×
// fastest train+sync), and the weighted objective respects the
// aggregate bound.
func TestQuickObjectiveLowerBounds(t *testing.T) {
	f := func(q quickInstance, seed int64) bool {
		in := q.in
		s := greedyDispatch(in, stats.New(seed))
		comps := s.JobCompletions(in)
		for _, j := range in.Jobs {
			fastest := math.Inf(1)
			for m := 0; m < in.NumGPUs; m++ {
				fastest = math.Min(fastest, in.Train[j.ID][m]+in.Sync[j.ID][m])
			}
			if comps[j.ID] < j.Arrival+fastest*float64(j.Rounds)-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickSerializationRoundTrips: any schedule survives the JSON
// round trip bit-for-bit.
func TestQuickSerializationRoundTrips(t *testing.T) {
	f := func(q quickInstance, seed int64) bool {
		s := greedyDispatch(q.in, stats.New(seed))
		data, err := encodeSchedule(s)
		if err != nil {
			return false
		}
		back, err := decodeSchedule(q.in, data)
		return err == nil && reflect.DeepEqual(back, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickAlphaAtLeastOne: the heterogeneity spread is ≥ 1 for every
// instance (it is a max of ratios each ≥ 1).
func TestQuickAlphaAtLeastOne(t *testing.T) {
	f := func(q quickInstance) bool {
		return q.in.Alpha() >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
