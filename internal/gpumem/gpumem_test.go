package gpumem

import (
	"testing"

	"hare/internal/stats"
)

const gib = int64(1) << 30

// counters are the manager's hit/miss/eviction counters.
type counters struct{ Hits, Misses, Evictions int }

func statsOf(m *Manager) counters { return counters{m.hits, m.misses, m.evictions} }

// free is capacity minus resident and active bytes.
func free(m *Manager) int64 { return m.capacity - m.used - m.active }

func TestBeginMissThenHit(t *testing.T) {
	m := NewManager(16 * gib)
	if hit := m.BeginAt(1, 4*gib, 0); hit {
		t.Error("first Begin reported a hit")
	}
	m.Complete(1, 1*gib, 10)
	if !m.Resident(1) {
		t.Error("weights not kept after Complete")
	}
	if hit := m.BeginAt(1, 4*gib, 0); !hit {
		t.Error("second Begin missed despite residency")
	}
	st := statsOf(m)
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestEvictionOldestFirst(t *testing.T) {
	m := NewManager(10 * gib)
	m.BeginAt(1, 3*gib, 0)
	m.Complete(1, 3*gib, 1)
	m.BeginAt(2, 3*gib, 0)
	m.Complete(2, 3*gib, 2)
	m.BeginAt(3, 3*gib, 0)
	m.Complete(3, 3*gib, 3)
	// 9 GiB resident; a 4 GiB task forces eviction of the oldest (1).
	m.BeginAt(4, 4*gib, 0)
	if m.Resident(1) {
		t.Error("oldest model survived eviction")
	}
	if !m.Resident(2) || !m.Resident(3) {
		t.Error("newer models evicted before the oldest")
	}
}

func TestBeladyProtectsNeededModels(t *testing.T) {
	m := NewManager(10 * gib)
	m.SetPolicy(Belady)
	// Sequence: job1, job2, job3, then job1 again — job 2 is never
	// needed after its run, job 1 is.
	m.SetLookahead([]JobKey{1, 2, 3, 1})
	m.BeginAt(1, 3*gib, 0)
	m.Complete(1, 3*gib, 1) // older, but needed at position 3
	m.BeginAt(2, 3*gib, 0)
	m.Complete(2, 3*gib, 2) // newer, never needed again
	m.BeginAt(3, 5*gib, 0)
	if m.Resident(2) {
		t.Error("never-needed model kept over a needed one")
	}
	if !m.Resident(1) {
		t.Error("needed model evicted despite Belady lookahead")
	}
}

func TestKeepLatestIgnoresLookahead(t *testing.T) {
	m := NewManager(10 * gib) // default KeepLatest
	m.SetLookahead([]JobKey{1, 2, 3, 1})
	m.BeginAt(1, 3*gib, 0)
	m.Complete(1, 3*gib, 1)
	m.BeginAt(2, 3*gib, 0)
	m.Complete(2, 3*gib, 2)
	m.BeginAt(3, 5*gib, 0)
	// The paper's heuristic evicts the oldest completion (job 1)
	// even though the lookahead says it is needed again.
	if m.Resident(1) {
		t.Error("keep-latest kept the oldest model")
	}
	if !m.Resident(2) {
		t.Error("keep-latest evicted the newest model")
	}
}

func TestBeladyCursorAdvances(t *testing.T) {
	m := NewManager(10 * gib)
	m.SetPolicy(Belady)
	// Job 1 appears at positions 0 and 1 only; after both run, its
	// next use must be "never".
	m.SetLookahead([]JobKey{1, 1, 2})
	m.BeginAt(1, 2*gib, 0)
	m.Complete(1, 2*gib, 1)
	if m.nextUseOf(1) != 1 {
		t.Errorf("next use %d, want 1", m.nextUseOf(1))
	}
	m.BeginAt(1, 2*gib, 0)
	m.Complete(1, 2*gib, 2)
	if m.nextUseOf(1) != -1 {
		t.Errorf("next use %d after both runs, want -1", m.nextUseOf(1))
	}
}

func TestPolicyString(t *testing.T) {
	if KeepLatest.String() != "keep-latest" || Belady.String() != "belady" {
		t.Error("policy names wrong")
	}
}

func TestOwnResidencyFoldsIntoActive(t *testing.T) {
	m := NewManager(8 * gib)
	m.BeginAt(1, 6*gib, 0)
	m.Complete(1, 2*gib, 1)
	// Beginning the same job again must not double-count its bytes.
	if hit := m.BeginAt(1, 6*gib, 0); !hit {
		t.Error("self residency missed")
	}
	if m.used != 0 {
		t.Errorf("resident bytes %d after folding into active", m.used)
	}
	if free(m) != 2*gib {
		t.Errorf("free %d", free(m))
	}
}

func TestCompleteDropsWhenFull(t *testing.T) {
	m := NewManager(4 * gib)
	m.BeginAt(1, 3*gib, 0)
	m.Complete(1, 3*gib, 1)
	m.BeginAt(2, 4*gib, 0) // evicts 1 (next task has priority)
	if m.Resident(1) {
		t.Error("model survived a full-memory Begin")
	}
	m.Complete(2, 3*gib, 2)
	if !m.Resident(2) {
		t.Error("completed model not kept when it fits")
	}
}

func TestBeginPanicsOnImpossibleFootprint(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for footprint > capacity")
		}
	}()
	NewManager(1*gib).BeginAt(1, 2*gib, 0)
}

func TestNewManagerPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for zero capacity")
		}
	}()
	NewManager(0)
}

// TestInvariantNeverOverCapacity fuzzes random Begin/Complete traffic
// and asserts the manager never tracks more bytes than the device
// holds.
func TestInvariantNeverOverCapacity(t *testing.T) {
	rng := stats.New(61)
	for trial := 0; trial < 30; trial++ {
		capacity := int64(rng.Intn(14)+2) * gib
		m := NewManager(capacity)
		if rng.Intn(2) == 0 {
			order := make([]JobKey, 12)
			for i := range order {
				order[i] = JobKey(rng.Intn(6))
			}
			m.SetLookahead(order)
		}
		for step := 0; step < 200; step++ {
			job := JobKey(rng.Intn(6))
			foot := int64(rng.Intn(int(capacity/gib))+1) * gib
			if foot > capacity {
				foot = capacity
			}
			m.BeginAt(job, foot, 0)
			if m.used+foot > capacity {
				t.Fatalf("trial %d step %d: resident %d + active %d > capacity %d",
					trial, step, m.used, foot, capacity)
			}
			weights := foot / 3
			m.Complete(job, weights, float64(step))
			if m.used > capacity {
				t.Fatalf("trial %d step %d: resident %d > capacity %d", trial, step, m.used, capacity)
			}
			if free(m) < 0 {
				t.Fatalf("trial %d step %d: negative free", trial, step)
			}
		}
	}
}

func TestNumResident(t *testing.T) {
	m := NewManager(16 * gib)
	m.BeginAt(1, gib, 0)
	m.Complete(1, gib, 1)
	m.BeginAt(2, gib, 0)
	m.Complete(2, gib, 2)
	if len(m.models) != 2 {
		t.Errorf("resident count %d", len(m.models))
	}
}

// TestResetMatchesFresh drives one manager through a workload, Resets
// it, and replays a second workload: every observable (hits, order of
// evictions via NumResident/Used, residency) must match a manager
// built fresh by NewManager. This is the contract the pooled simulator
// leans on when it holds managers by value across runs.
func TestResetMatchesFresh(t *testing.T) {
	workload := func(m *Manager) []any {
		m.SetPolicy(Belady)
		m.SetLookahead([]JobKey{1, 2, 1, 3, 2, 1})
		var obsv []any
		for i, k := range []JobKey{1, 2, 1, 3, 2, 1} {
			hit := m.BeginAt(k, 40, float64(i))
			m.Complete(k, 25, float64(i)+0.5)
			obsv = append(obsv, hit, m.used, free(m), len(m.models), statsOf(m))
		}
		return obsv
	}

	reused := NewManager(90)
	// Dirty it with a different capacity/policy/lookahead run.
	reused.SetLookahead([]JobKey{5, 6, 5})
	reused.BeginAt(5, 60, 0)
	reused.Complete(5, 50, 1)
	reused.BeginAt(6, 60, 2)
	reused.Reset(100)

	fresh := NewManager(100)
	got, want := workload(reused), workload(fresh)
	if len(got) != len(want) {
		t.Fatalf("observation lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("observation %d: reused %v, fresh %v", i, got[i], want[i])
		}
	}
}

// TestResetClearsRecorderAndCounters pins that Reset drops the
// recorder attachment and zeroes all counters, matching NewManager.
func TestResetClearsRecorderAndCounters(t *testing.T) {
	m := NewManager(50)
	m.BeginAt(1, 30, 0)
	m.Complete(1, 20, 1)
	m.BeginAt(1, 30, 2) // hit
	if statsOf(m).Hits != 1 {
		t.Fatalf("setup: stats %+v", statsOf(m))
	}
	m.Reset(50)
	if statsOf(m) != (counters{}) {
		t.Errorf("stats after Reset: %+v", statsOf(m))
	}
	if m.used != 0 || len(m.models) != 0 || free(m) != 50 {
		t.Errorf("memory after Reset: used=%d resident=%d free=%d", m.used, len(m.models), free(m))
	}
	if m.policy != KeepLatest {
		t.Errorf("policy after Reset: %v", m.policy)
	}
	if m.Resident(1) {
		t.Error("job 1 still resident after Reset")
	}
}

// TestSetLookaheadReuseMatchesFresh pins that repeated SetLookahead
// calls on one manager answer Belady nextUse queries identically to a
// fresh manager given only the final lookahead.
func TestSetLookaheadReuseMatchesFresh(t *testing.T) {
	orders := [][]JobKey{
		{1, 2, 3, 1, 2, 1},
		{4, 4, 4},
		{2, 1, 2, 1, 2, 5, 5},
	}
	reused := NewManager(1000)
	reused.SetPolicy(Belady)
	for _, order := range orders {
		reused.SetLookahead(order)
	}
	fresh := NewManager(1000)
	fresh.SetPolicy(Belady)
	fresh.SetLookahead(orders[len(orders)-1])

	// Belady victim ordering is fully determined by nextUseOf; compare
	// it indirectly through eviction behavior on identical traffic.
	run := func(m *Manager) []bool {
		var hits []bool
		for i, k := range orders[len(orders)-1] {
			hits = append(hits, m.BeginAt(k, 600, float64(i)))
			m.Complete(k, 400, float64(i)+0.5)
		}
		return hits
	}
	got, want := run(reused), run(fresh)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("begin %d: reused hit=%v, fresh hit=%v", i, got[i], want[i])
		}
	}
	if statsOf(reused) != statsOf(fresh) {
		t.Fatalf("stats diverged: reused %+v, fresh %+v", statsOf(reused), statsOf(fresh))
	}
}
