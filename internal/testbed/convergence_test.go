package testbed

import (
	"math"
	"testing"

	"hare/internal/sched"
	"hare/internal/store"
)

// TestConvergenceIndependentOfSchedule verifies the claim behind the
// paper's relaxed scale-fixed synchronization (§2.2.3): because every
// round still aggregates exactly |D_r| gradients computed from the
// same checkpoint, the learned parameters do not depend on *when or
// where* the tasks ran. We execute the same workload under Hare's
// relaxed schedule and under the strict-gang schedule and compare the
// final checkpoints — they must coincide to floating-point roundoff
// (gradient summation order can differ between schedules).
//
// This is precisely what scale-ADAPTIVE synchronization cannot offer:
// changing |D_r| changes the effective batch per update and thus the
// trajectory, which is the paper's reason for rejecting it.
func TestConvergenceIndependentOfSchedule(t *testing.T) {
	in, cl, models := smallWorkload(t, 5, 41)

	finals := make([][][]float64, 2) // [variant][job] -> params

	run := func(a sched.Algorithm) [][]float64 {
		t.Helper()
		plan, err := a.Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		st := store.NewMem()
		_, err = Run(in, plan, cl, models, Options{Store: st})
		if err != nil {
			t.Fatal(err)
		}
		params := make([][]float64, len(in.Jobs))
		for j := range in.Jobs {
			data, err := st.Load(store.LatestKey(j))
			if err != nil {
				t.Fatal(err)
			}
			if params[j], err = store.DecodeParams(data); err != nil {
				t.Fatal(err)
			}
		}
		return params
	}

	finals[0] = run(sched.NewHare())
	finals[1] = run(sched.NewHareStrict())
	for j := range in.Jobs {
		if d := paramDistance(finals[0][j], finals[1][j]); d > 1e-9 {
			t.Errorf("job %d (%s): relaxed and strict schedules diverged by %g",
				j, models[j].Name, d)
		}
	}
}

// TestConvergenceMatchesSerialSGD: the distributed PS path computes
// exactly the average-gradient SGD update — replaying the same rounds
// serially reproduces the same parameters.
func TestConvergenceMatchesSerialSGD(t *testing.T) {
	in, cl, models := smallWorkload(t, 3, 47)
	plan, err := sched.NewHare().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewMem()
	if _, err := Run(in, plan, cl, models, Options{Store: st}); err != nil {
		t.Fatal(err)
	}
	for _, j := range in.Jobs {
		prob := NewProblem(32, 8, int64(j.ID)+1)
		w := prob.InitParams()
		for r := 0; r < j.Rounds; r++ {
			grads := make([][]float64, j.Scale)
			for k := 0; k < j.Scale; k++ {
				grads[k] = prob.Gradient(w, r, k)
			}
			ApplySGD(w, AggregateGradients(grads), 0.3)
		}
		data, err := st.Load(store.LatestKey(int(j.ID)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := store.DecodeParams(data)
		if err != nil {
			t.Fatal(err)
		}
		if d := paramDistance(got, w); d > 1e-9 {
			t.Errorf("job %d: distributed params differ from serial SGD by %g", j.ID, d)
		}
	}
}

// paramDistance returns the L2 distance between two parameter
// vectors.
func paramDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("testbed: distance of unequal vectors")
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
