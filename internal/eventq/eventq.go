// Package eventq implements the priority queues of the discrete-event
// simulator and the list schedulers.
//
// IndexedHeap is the one they run on: a min-heap over a fixed universe
// of integer ids with update and removal by id. Queue[T] (time-ordered
// events, FIFO on ties) and MinHeap[T] (items keyed by a float64
// priority) predate it and have no caller outside this package's tests.
package eventq

import "container/heap"

// Queue is a deterministic time-ordered event queue. Events popped in
// non-decreasing time order; equal times pop in push order.
type Queue[T any] struct {
	h   eventHeap[T]
	seq uint64
}

type event[T any] struct {
	at   float64
	seq  uint64
	item T
}

type eventHeap[T any] []event[T]

func (h eventHeap[T]) Len() int { return len(h) }
func (h eventHeap[T]) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap[T]) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap[T]) Push(x any)   { *h = append(*h, x.(event[T])) }
func (h *eventHeap[T]) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Push schedules item at time at.
func (q *Queue[T]) Push(at float64, item T) {
	q.seq++
	heap.Push(&q.h, event[T]{at: at, seq: q.seq, item: item})
}

// Pop removes and returns the earliest event. ok is false when the
// queue is empty.
func (q *Queue[T]) Pop() (at float64, item T, ok bool) {
	if len(q.h) == 0 {
		var zero T
		return 0, zero, false
	}
	ev := heap.Pop(&q.h).(event[T])
	return ev.at, ev.item, true
}

// Peek returns the earliest event without removing it.
func (q *Queue[T]) Peek() (at float64, item T, ok bool) {
	if len(q.h) == 0 {
		var zero T
		return 0, zero, false
	}
	return q.h[0].at, q.h[0].item, true
}

// Len reports the number of queued events.
func (q *Queue[T]) Len() int { return len(q.h) }

// IndexedHeap is a min-heap over a fixed universe of integer ids
// 0..n-1, keyed by a float64 priority with deterministic tie-breaking
// on the smaller id. Unlike MinHeap it supports O(log n) update and
// removal *by id* — the shape incremental simulators need: when one
// GPU's candidate start changes, only that entry moves, and the
// smallest-id-wins tie-break reproduces a linear scan's "first best
// index" selection exactly.
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
	h := &IndexedHeap{
		ids: make([]int, 0, n),
		pos: make([]int, n),
		pri: make([]float64, n),
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
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

// MinHeap is a generic min-heap of items keyed by a float64 priority
// with deterministic FIFO tie-breaking.
type MinHeap[T any] struct {
	h   eventHeap[T]
	seq uint64
}

// Push inserts item with the given priority.
func (m *MinHeap[T]) Push(priority float64, item T) {
	m.seq++
	heap.Push(&m.h, event[T]{at: priority, seq: m.seq, item: item})
}

// Pop removes and returns the minimum-priority item.
func (m *MinHeap[T]) Pop() (priority float64, item T, ok bool) {
	if len(m.h) == 0 {
		var zero T
		return 0, zero, false
	}
	ev := heap.Pop(&m.h).(event[T])
	return ev.at, ev.item, true
}

// Peek returns the minimum-priority item without removing it.
func (m *MinHeap[T]) Peek() (priority float64, item T, ok bool) {
	if len(m.h) == 0 {
		var zero T
		return 0, zero, false
	}
	return m.h[0].at, m.h[0].item, true
}

// Len reports the number of items in the heap.
func (m *MinHeap[T]) Len() int { return len(m.h) }
