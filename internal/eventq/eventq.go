// Package eventq implements the priority queue of the discrete-event
// simulator and the list schedulers: IndexedHeap, a min-heap over a
// fixed universe of integer ids with update and removal by id.
package eventq

// IndexedHeap is a min-heap over a fixed universe of integer ids
// 0..n-1, keyed by a float64 priority with deterministic tie-breaking
// on the smaller id. Update and removal *by id* are O(log n) — the shape
// incremental simulators need: when one GPU's candidate start changes,
// only that entry moves, and the smallest-id-wins tie-break reproduces
// a linear scan's "first best index" selection exactly.
type IndexedHeap struct {
	ids []int     // heap-ordered ids
	pos []int     // pos[id] = index into ids, or -1 when absent
	pri []float64 // pri[id] = current priority (valid while present)
	ops HeapOps
}

// HeapOps counts the structural operations an IndexedHeap has served.
// They are plain integers bumped inline — cheap enough to stay on in
// hot loops — and exist so the simulator can export "how much heap
// work did this replay do" as telemetry after a run.
type HeapOps struct {
	Inserts uint64 // Set calls on an absent id
	Updates uint64 // Set calls on a present id
	Removes uint64 // successful removals, including those from PopMin
	Pops    uint64 // PopMin calls that returned an id
}

// NewIndexedHeap returns an empty heap over ids 0..n-1.
func NewIndexedHeap(n int) *IndexedHeap {
	h := &IndexedHeap{}
	h.Reset(n)
	return h
}

// Len reports the number of ids currently in the heap.
func (h *IndexedHeap) Len() int { return len(h.ids) }

// Reset empties the heap and re-sizes its universe to ids 0..n-1,
// reusing the existing storage when it is large enough. The operation
// counters restart from zero, so a pooled simulator's per-run
// telemetry matches a freshly constructed heap's exactly.
func (h *IndexedHeap) Reset(n int) {
	if cap(h.ids) < n {
		h.ids = make([]int, 0, n)
	} else {
		h.ids = h.ids[:0]
	}
	if cap(h.pos) < n {
		h.pos = make([]int, n)
		h.pri = make([]float64, n)
	} else {
		h.pos = h.pos[:n]
		h.pri = h.pri[:n]
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	h.ops = HeapOps{}
}

// Contains reports whether id is currently in the heap.
func (h *IndexedHeap) Contains(id int) bool { return h.pos[id] >= 0 }

// Set inserts id with the given priority, or updates its priority if
// already present.
func (h *IndexedHeap) Set(id int, priority float64) {
	h.pri[id] = priority
	if i := h.pos[id]; i >= 0 {
		h.ops.Updates++
		if !h.up(i) {
			h.down(i)
		}
		return
	}
	h.ops.Inserts++
	h.pos[id] = len(h.ids)
	h.ids = append(h.ids, id)
	h.up(len(h.ids) - 1)
}

// Remove deletes id from the heap; absent ids are a no-op.
func (h *IndexedHeap) Remove(id int) {
	i := h.pos[id]
	if i < 0 {
		return
	}
	h.ops.Removes++
	last := len(h.ids) - 1
	h.swap(i, last)
	h.ids = h.ids[:last]
	h.pos[id] = -1
	if i < last {
		if !h.up(i) {
			h.down(i)
		}
	}
}

// Min returns the id with the smallest (priority, id) without
// removing it. ok is false when the heap is empty.
func (h *IndexedHeap) Min() (id int, priority float64, ok bool) {
	if len(h.ids) == 0 {
		return 0, 0, false
	}
	id = h.ids[0]
	return id, h.pri[id], true
}

// PopMin removes and returns the id with the smallest (priority, id).
func (h *IndexedHeap) PopMin() (id int, priority float64, ok bool) {
	id, priority, ok = h.Min()
	if ok {
		h.ops.Pops++
		h.Remove(id)
	}
	return id, priority, ok
}

// Ops returns the operation counts accumulated so far.
func (h *IndexedHeap) Ops() HeapOps { return h.ops }

func (h *IndexedHeap) less(a, b int) bool {
	ia, ib := h.ids[a], h.ids[b]
	if h.pri[ia] != h.pri[ib] {
		return h.pri[ia] < h.pri[ib]
	}
	return ia < ib
}

func (h *IndexedHeap) swap(a, b int) {
	h.ids[a], h.ids[b] = h.ids[b], h.ids[a]
	h.pos[h.ids[a]] = a
	h.pos[h.ids[b]] = b
}

// up sifts position i toward the root, reporting whether it moved.
func (h *IndexedHeap) up(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

// down sifts position i toward the leaves.
func (h *IndexedHeap) down(i int) {
	n := len(h.ids)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(l, small) {
			small = l
		}
		if r < n && h.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}
