package eventq

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestIndexedHeapOrdering(t *testing.T) {
	h := NewIndexedHeap(5)
	h.Set(3, 2.0)
	h.Set(1, 1.0)
	h.Set(4, 3.0)
	if id, pri, ok := h.Min(); !ok || id != 1 || pri != 1.0 {
		t.Fatalf("min (%d,%g,%v)", id, pri, ok)
	}
	// Update moves an entry both ways.
	h.Set(4, 0.5)
	if id, _, _ := h.Min(); id != 4 {
		t.Errorf("decrease-key did not float: min %d", id)
	}
	h.Set(4, 9)
	if id, _, _ := h.Min(); id != 1 {
		t.Errorf("increase-key did not sink: min %d", id)
	}
	var got []int
	for h.Len() > 0 {
		id, _, _ := h.PopMin()
		got = append(got, id)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 4 {
		t.Errorf("pop order %v", got)
	}
}

func TestIndexedHeapTieBreaksBySmallestID(t *testing.T) {
	// Equal priorities must pop in id order — the exact tie-break of
	// the simulator's old linear scan (first best GPU index wins),
	// regardless of insertion order.
	h := NewIndexedHeap(8)
	for _, id := range []int{5, 2, 7, 0, 3} {
		h.Set(id, 1.5)
	}
	want := []int{0, 2, 3, 5, 7}
	for i, w := range want {
		id, _, ok := h.PopMin()
		if !ok || id != w {
			t.Fatalf("pop %d: got %d, want %d", i, id, w)
		}
	}
}

func TestIndexedHeapRemove(t *testing.T) {
	h := NewIndexedHeap(4)
	for id := 0; id < 4; id++ {
		h.Set(id, float64(id))
	}
	h.Remove(0)
	h.Remove(2)
	h.Remove(2) // absent: no-op
	if h.Contains(0) || h.Contains(2) || !h.Contains(1) {
		t.Error("membership wrong after removals")
	}
	if id, _, _ := h.PopMin(); id != 1 {
		t.Errorf("min %d after removing 0", id)
	}
	if id, _, _ := h.PopMin(); id != 3 {
		t.Errorf("min %d", id)
	}
	if _, _, ok := h.PopMin(); ok {
		t.Error("pop on empty returned ok")
	}
}

// TestIndexedHeapRandomizedAgainstScan cross-checks the heap's min
// against a brute-force scan under random insert/update/remove
// traffic.
func TestIndexedHeapRandomizedAgainstScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 40
	h := NewIndexedHeap(n)
	pri := make(map[int]float64)
	for step := 0; step < 5000; step++ {
		id := rng.Intn(n)
		switch rng.Intn(3) {
		case 0, 1:
			p := math.Floor(rng.Float64()*8) / 4 // coarse grid forces ties
			h.Set(id, p)
			pri[id] = p
		case 2:
			h.Remove(id)
			delete(pri, id)
		}
		wantID, wantPri, wantOK := -1, 0.0, false
		for i := 0; i < n; i++ { // scan in id order: ties keep smallest id
			if p, ok := pri[i]; ok && (!wantOK || p < wantPri) {
				wantID, wantPri, wantOK = i, p, true
			}
		}
		gotID, gotPri, gotOK := h.Min()
		if gotOK != wantOK || (wantOK && (gotID != wantID || gotPri != wantPri)) {
			t.Fatalf("step %d: heap min (%d,%g,%v), scan min (%d,%g,%v)",
				step, gotID, gotPri, gotOK, wantID, wantPri, wantOK)
		}
		if h.Len() != len(pri) {
			t.Fatalf("step %d: len %d, want %d", step, h.Len(), len(pri))
		}
	}
}

// TestIndexedHeapOps pins the operation-counter semantics the
// simulator's telemetry export relies on: inserts vs updates are
// distinguished, Removes includes PopMin removals, absent-id Remove
// counts nothing.
func TestIndexedHeapOps(t *testing.T) {
	h := NewIndexedHeap(4)
	if h.Ops() != (HeapOps{}) {
		t.Fatalf("fresh heap ops %+v", h.Ops())
	}
	h.Set(0, 3) // insert
	h.Set(1, 1) // insert
	h.Set(0, 5) // update
	h.Remove(2) // absent: no-op
	h.Remove(1) // explicit removal
	h.PopMin()  // pop (removes 0)
	h.PopMin()  // empty: no-op
	want := HeapOps{Inserts: 2, Updates: 1, Removes: 2, Pops: 1}
	if got := h.Ops(); got != want {
		t.Fatalf("ops %+v, want %+v", got, want)
	}
}

// naiveIndexed is an O(n) reference for IndexedHeap: a presence array
// of priorities, with Min computed by full scan using the documented
// (priority, smallest id) order.
type naiveIndexed struct {
	present []bool
	pri     []float64
	n       int
}

func newNaiveIndexed(universe int) *naiveIndexed {
	return &naiveIndexed{present: make([]bool, universe), pri: make([]float64, universe)}
}

func (n *naiveIndexed) Set(id int, p float64) {
	if !n.present[id] {
		n.present[id] = true
		n.n++
	}
	n.pri[id] = p
}

func (n *naiveIndexed) Remove(id int) {
	if n.present[id] {
		n.present[id] = false
		n.n--
	}
}

func (n *naiveIndexed) Min() (int, float64, bool) {
	best, bestP, ok := 0, 0.0, false
	for id := range n.present { // ascending id scan makes ties pick the smallest
		if !n.present[id] {
			continue
		}
		if !ok || n.pri[id] < bestP {
			best, bestP, ok = id, n.pri[id], true
		}
	}
	return best, bestP, ok
}

func (n *naiveIndexed) PopMin() (int, float64, bool) {
	id, p, ok := n.Min()
	if ok {
		n.Remove(id)
	}
	return id, p, ok
}

// TestIndexedHeapChurnStress drives an IndexedHeap through a long
// randomized mix of inserts, priority updates (up and down), explicit
// removals, and PopMin churn — the pooled simulator's workload shape —
// cross-checking every observable against the naive reference. The
// coarse priority grid forces frequent ties so the smallest-id
// tie-break is exercised constantly, and periodic full drains verify
// the complete pop order, not just the current minimum.
func TestIndexedHeapChurnStress(t *testing.T) {
	const (
		universe = 257 // intentionally not a power of two
		steps    = 60000
	)
	rng := rand.New(rand.NewSource(99))
	h := NewIndexedHeap(universe)
	ref := newNaiveIndexed(universe)

	checkMin := func(step int) {
		t.Helper()
		id, p, ok := h.Min()
		wid, wp, wok := ref.Min()
		if ok != wok || (ok && (id != wid || p != wp)) {
			t.Fatalf("step %d: Min()=(%d,%g,%v), want (%d,%g,%v)",
				step, id, p, ok, wid, wp, wok)
		}
		if h.Len() != ref.n {
			t.Fatalf("step %d: Len()=%d, want %d", step, h.Len(), ref.n)
		}
	}

	for step := 0; step < steps; step++ {
		id := rng.Intn(universe)
		// Coarse grid: ~32 distinct priorities over a long run, so
		// nearly every heap level holds ties.
		p := math.Floor(rng.Float64()*32) / 8
		switch op := rng.Intn(10); {
		case op < 4: // insert or update
			h.Set(id, p)
			ref.Set(id, p)
		case op < 6: // remove (often absent — must be a no-op)
			h.Remove(id)
			ref.Remove(id)
		case op < 9: // pop churn
			gid, gp, gok := h.PopMin()
			wid, wp, wok := ref.PopMin()
			if gok != wok || (gok && (gid != wid || gp != wp)) {
				t.Fatalf("step %d: PopMin()=(%d,%g,%v), want (%d,%g,%v)",
					step, gid, gp, gok, wid, wp, wok)
			}
		default: // membership probe
			if got, want := h.Contains(id), ref.present[id]; got != want {
				t.Fatalf("step %d: Contains(%d)=%v, want %v", step, id, got, want)
			}
		}
		checkMin(step)

		// Every so often, drain completely and verify the full pop
		// sequence is the reference's (priority, id) order.
		if step%9973 == 0 && h.Len() > 0 {
			type popped struct {
				id int
				p  float64
			}
			var got, want []popped
			for h.Len() > 0 {
				id, p, _ := h.PopMin()
				got = append(got, popped{id, p})
				wid, wp, _ := ref.PopMin()
				want = append(want, popped{wid, wp})
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("drain at step %d: pop %d = %+v, want %+v", step, i, got[i], want[i])
				}
			}
			// Sanity: the drain really is sorted by (priority, id).
			if !sort.SliceIsSorted(got, func(a, b int) bool {
				if got[a].p != got[b].p {
					return got[a].p < got[b].p
				}
				return got[a].id < got[b].id
			}) {
				t.Fatalf("drain at step %d not in (priority, id) order: %v", step, got)
			}
		}
	}
}

// TestIndexedHeapResetMatchesFresh replays one seeded op sequence on a
// fresh heap and on a heap that has been through a different prior run
// and then Reset: pops, minima, and the HeapOps telemetry must be
// identical, both when Reset shrinks the universe and when it grows it.
func TestIndexedHeapResetMatchesFresh(t *testing.T) {
	replay := func(h *IndexedHeap, n int, seed int64) ([]int, HeapOps) {
		rng := rand.New(rand.NewSource(seed))
		var pops []int
		for step := 0; step < 4000; step++ {
			id := rng.Intn(n)
			p := math.Floor(rng.Float64()*16) / 4
			switch rng.Intn(6) {
			case 0, 1, 2:
				h.Set(id, p)
			case 3:
				h.Remove(id)
			default:
				if id, _, ok := h.PopMin(); ok {
					pops = append(pops, id)
				}
			}
		}
		for h.Len() > 0 {
			id, _, _ := h.PopMin()
			pops = append(pops, id)
		}
		return pops, h.Ops()
	}

	for _, n := range []int{16, 64, 300} {
		fresh := NewIndexedHeap(n)
		wantPops, wantOps := replay(fresh, n, 7)

		reused := NewIndexedHeap(100)
		replay(reused, 100, 13) // dirty it with an unrelated run
		reused.Reset(n)
		if reused.Len() != 0 || reused.Ops() != (HeapOps{}) {
			t.Fatalf("n=%d: Reset left Len=%d ops=%+v", n, reused.Len(), reused.Ops())
		}
		gotPops, gotOps := replay(reused, n, 7)

		if len(gotPops) != len(wantPops) {
			t.Fatalf("n=%d: %d pops after Reset, want %d", n, len(gotPops), len(wantPops))
		}
		for i := range gotPops {
			if gotPops[i] != wantPops[i] {
				t.Fatalf("n=%d: pop %d = id %d after Reset, want %d", n, i, gotPops[i], wantPops[i])
			}
		}
		if gotOps != wantOps {
			t.Fatalf("n=%d: ops after Reset %+v, want %+v", n, gotOps, wantOps)
		}
	}
}
