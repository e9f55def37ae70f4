package testbed

import (
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"hare/internal/core"
	"hare/internal/sched"
	"hare/internal/store"
)

// TestRunFollowsPlanOrder: the in-process engine runs each GPU's tasks
// in exactly the order the plan lists them — the order the simulator
// replays and Fig. 12 compares against — whatever the timing.
func TestRunFollowsPlanOrder(t *testing.T) {
	in, cl, models := smallWorkload(t, 6, 3)
	plan, err := sched.NewHare().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(in, plan, cl, models, Options{TimeScale: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	ran := make([][]core.TaskRef, in.NumGPUs)
	recs := slices.Clone(res.Trace.Records)
	sort.SliceStable(recs, func(a, b int) bool { return recs[a].Start < recs[b].Start })
	for _, r := range recs {
		ran[r.GPU] = append(ran[r.GPU], r.Task)
	}
	for g, want := range plan.Sequences(in.NumGPUs) {
		if !reflect.DeepEqual(ran[g], want) && len(ran[g])+len(want) > 0 {
			t.Errorf("GPU %d ran %v, plan lists %v", g, ran[g], want)
		}
	}
}

// keyStore remembers every key saved to it.
type keyStore struct {
	store.Store
	mu   sync.Mutex
	keys []string
}

func (s *keyStore) Save(key string, data []byte) error {
	s.mu.Lock()
	s.keys = append(s.keys, key)
	s.mu.Unlock()
	return s.Store.Save(key, data)
}

// TestRunCheckpointGolden pins what the in-process engine trains: a
// SHA-256 of every checkpoint in the store after a run, key and bytes in
// key order, then every job's first and last held-out loss. Every job
// has at most two tasks per round, and two-term IEEE addition is
// commutative (0+g is exact), so the order gradients arrive in cannot
// move a bit: the hash depends on the aggregation, not on timing.
func TestRunCheckpointGolden(t *testing.T) {
	in, cl, models := smallWorkload(t, 6, 3)
	for _, j := range in.Jobs {
		j.Scale = min(j.Scale, 2)
	}
	plan, err := sched.NewHare().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	st := &keyStore{Store: store.NewMem()}
	res, err := Run(in, plan, cl, models, Options{TimeScale: 1e-4, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	keys := slices.Clone(st.keys)
	slices.Sort(keys)
	keys = slices.Compact(keys)
	for _, k := range keys {
		data, err := st.Load(k)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", k, len(data))
		h.Write(data)
	}
	for j := range in.Jobs {
		fmt.Fprintf(h, "loss %d %x %x\n", j, math.Float64bits(res.InitialLosses[j]), math.Float64bits(res.FinalLosses[j]))
	}
	const want = "90facb487588e4c6080e4c30ad02c0a391844bde0feaf7393e071000f0da5dfb"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("%d checkpoints and the losses hash to %s, want %s", len(keys), got, want)
	}
}
