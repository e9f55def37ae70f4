// Package gpumem implements Hare's speculative GPU memory manager
// (paper §4). After a task finishes, the manager keeps the task's
// model weights resident "speculatively" so that a later task of the
// same job scheduled on the same GPU can skip the host→device
// transfer entirely.
//
// Two eviction policies are provided. KeepLatest is the paper's
// heuristic, implemented verbatim: the *next* task always has memory
// priority, and the models of the latest completed tasks are kept
// greedily until they no longer fit. Belady approximates the optimal
// offline policy the paper notes one could solve for — Hare schedules
// offline, so each GPU's future task sequence is known, and the model
// re-used farthest in the future is the best victim. The ablation
// experiments.AblationMemoryPolicy quantifies the (small) gap, which
// is the paper's justification for shipping the heuristic.
package gpumem

import (
	"fmt"
	"slices"
	"sort"

	"hare/internal/obs"
)

// JobKey identifies a resident model by the job that owns it. Two
// tasks share weights only if they belong to the same job (different
// jobs training the same architecture still have different weights).
type JobKey int

// Policy selects the eviction order among speculatively kept models.
type Policy int

const (
	// KeepLatest is the paper's heuristic: "greedily keeps models of
	// latest completed tasks until they cannot be accommodated" —
	// evict the oldest-completed first.
	KeepLatest Policy = iota
	// Belady evicts the model whose next use in the known task
	// sequence is farthest away (never-used models first). It needs
	// SetLookahead; without one it behaves like KeepLatest.
	Belady
)

func (p Policy) String() string {
	switch p {
	case KeepLatest:
		return "keep-latest"
	case Belady:
		return "belady"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// resident is one speculatively kept model.
type resident struct {
	key         JobKey
	weightBytes int64
	// completedAt orders KeepLatest evictions: oldest first.
	completedAt float64
}

// Manager tracks one GPU's memory. It is not safe for concurrent use;
// the simulator and each executor own one manager per GPU.
type Manager struct {
	capacity int64
	policy   Policy
	used     int64 // bytes held by resident models (excludes active task)
	active   int64 // bytes held by the currently running task

	// models holds the speculatively kept entries, ordered by
	// completion (callers report nondecreasing times, so appends keep
	// it sorted). A slice, not a map: the resident set is a handful of
	// models at most, linear scans beat hashing at that size, and —
	// what matters for the pooled replay core — a reused slice never
	// allocates, while a churned map periodically re-grows its buckets.
	models []resident
	// positions lists, per job, the indices of its tasks in this
	// GPU's planned sequence; cursor counts Begins so nextUse can be
	// answered relative to the current point in the sequence. The
	// position lists are carved out of posBacking so a pooled manager's
	// SetLookahead allocates nothing once the backing array has grown
	// to the sequence length; posCount is the reusable counting pass.
	positions  map[JobKey][]int
	posBacking []int
	posCount   map[JobKey]int
	cursor     int

	// victimsBuf is the reusable eviction-order scratch for evictFor.
	victimsBuf []resident

	// Counters the tests observe eviction behaviour through.
	hits, misses, evictions int

	// rec, when set, receives admit/hit events stamped with gpu
	// and the run-clock time the caller reported.
	rec *obs.Recorder
	gpu int
}

// NewManager returns a manager for a device with the given capacity
// in bytes, using the paper's KeepLatest policy.
func NewManager(capacity int64) *Manager {
	m := new(Manager)
	m.Reset(capacity)
	return m
}

// Reset returns the manager to the state NewManager(capacity) would
// produce — empty device, KeepLatest policy, no recorder, zeroed
// counters and clock — while keeping the map and scratch storage for
// reuse. It works on a zero-value Manager, so a pooled simulator can
// hold managers by value and Reset them per run.
func (m *Manager) Reset(capacity int64) {
	if capacity <= 0 {
		panic(fmt.Sprintf("gpumem: non-positive capacity %d", capacity))
	}
	m.capacity = capacity
	m.policy = KeepLatest
	m.used, m.active = 0, 0
	m.models = m.models[:0]
	if m.positions == nil {
		m.positions = make(map[JobKey][]int)
	} else {
		clear(m.positions)
	}
	m.cursor = 0
	m.hits, m.misses, m.evictions = 0, 0, 0
	m.rec, m.gpu = nil, 0
}

// SetPolicy switches the eviction policy; call before traffic starts.
func (m *Manager) SetPolicy(p Policy) { m.policy = p }

// SetRecorder attaches an observability recorder; events carry gpu as
// their device lane. A nil recorder (the default) keeps the manager
// silent and cost-free.
func (m *Manager) SetRecorder(r *obs.Recorder, gpu int) {
	m.rec = r
	m.gpu = gpu
}

// SetLookahead informs the manager of the upcoming task order on its
// GPU: order[i] is the job of the i-th future task. It resets the
// sequence cursor.
func (m *Manager) SetLookahead(order []JobKey) {
	clear(m.positions)
	if m.posCount == nil {
		m.posCount = make(map[JobKey]int, len(order))
	} else {
		clear(m.posCount)
	}
	for _, k := range order {
		m.posCount[k]++
	}
	if cap(m.posBacking) < len(order) {
		m.posBacking = make([]int, len(order))
	}
	// Carve one zero-length slice per job out of the backing array, in
	// first-appearance order so each job's appends stay in bounds.
	off := 0
	for _, k := range order {
		if _, ok := m.positions[k]; ok {
			continue
		}
		n := m.posCount[k]
		m.positions[k] = m.posBacking[off : off : n+off]
		off += n
	}
	for i, k := range order {
		m.positions[k] = append(m.positions[k], i)
	}
	m.cursor = 0
}

// nextUseOf returns the next sequence position at which job k runs,
// counting from the current cursor, or -1 if never again (or no
// lookahead was provided).
func (m *Manager) nextUseOf(k JobKey) int {
	ps := m.positions[k]
	i := sort.SearchInts(ps, m.cursor)
	if i == len(ps) {
		return -1
	}
	return ps[i]
}

// Resident reports whether the job's model weights are currently on
// the device.
func (m *Manager) Resident(k JobKey) bool {
	return m.indexOf(k) >= 0
}

// indexOf returns the position of job k's resident entry, or -1.
func (m *Manager) indexOf(k JobKey) int {
	for i := range m.models {
		if m.models[i].key == k {
			return i
		}
	}
	return -1
}

// removeAt deletes entry i, preserving completion order.
func (m *Manager) removeAt(i int) {
	copy(m.models[i:], m.models[i+1:])
	m.models = m.models[:len(m.models)-1]
}

// BeginAt claims memory for a task of job k whose full training
// footprint is footprintBytes. It returns hit=true when the job's
// weights were already resident (the speculative win: no host→device
// transfer). The task's own resident entry, if any, is folded into
// the active footprint; other residents are evicted by policy until
// the footprint fits. now is the run-clock time (the task's start),
// which stamps the emitted hit event. BeginAt panics if the
// footprint alone exceeds device capacity — the scheduler must never
// place such a task.
func (m *Manager) BeginAt(k JobKey, footprintBytes int64, now float64) (hit bool) {
	if footprintBytes > m.capacity {
		panic(fmt.Sprintf("gpumem: task footprint %d exceeds capacity %d", footprintBytes, m.capacity))
	}
	if i := m.indexOf(k); i >= 0 {
		r := m.models[i]
		hit = true
		m.hits++
		m.used -= r.weightBytes
		if m.rec.Enabled() {
			m.rec.Emit(obs.Event{
				Type: obs.EvMemHit, Time: now, GPU: m.gpu, Job: int(k),
				Bytes: r.weightBytes, Hit: true,
			})
		}
		m.removeAt(i)
	} else {
		m.misses++
	}
	m.cursor++ // this Begin consumes one sequence position
	// The next task has absolute priority (paper heuristic): evict
	// until it fits.
	m.evictFor(footprintBytes)
	m.active = footprintBytes
	return hit
}

// evictFor removes resident models until need bytes fit beside them.
func (m *Manager) evictFor(need int64) {
	if m.used+need <= m.capacity {
		return
	}
	victims := append(m.victimsBuf[:0], m.models...)
	// evictsBefore is a strict weak order with a total key tie-break,
	// so the unstable sort is deterministic.
	slices.SortFunc(victims, func(a, b resident) int {
		if m.evictsBefore(a, b) {
			return -1
		}
		if m.evictsBefore(b, a) {
			return 1
		}
		return 0
	})
	for _, v := range victims {
		if m.used+need <= m.capacity {
			break
		}
		m.used -= v.weightBytes
		m.removeAt(m.indexOf(v.key))
		m.evictions++
	}
	m.victimsBuf = victims[:0]
}

// evictsBefore orders eviction victims according to the policy.
func (m *Manager) evictsBefore(a, b resident) bool {
	switch m.policy {
	case Belady:
		au, bu := m.nextUseOf(a.key), m.nextUseOf(b.key)
		if (au == -1) != (bu == -1) {
			return au == -1 // never used again evicts first
		}
		if au != bu {
			return au > bu // needed later evicts first
		}
	}
	if a.completedAt != b.completedAt {
		return a.completedAt < b.completedAt // oldest evicts first
	}
	return a.key < b.key
}

// Complete releases the active task's footprint and speculatively
// keeps the job's model weights (weightBytes) resident if room can be
// made by policy. now orders future KeepLatest evictions.
func (m *Manager) Complete(k JobKey, weightBytes int64, now float64) {
	m.active = 0
	if weightBytes <= 0 {
		return
	}
	if i := m.indexOf(k); i >= 0 {
		m.used -= m.models[i].weightBytes
		m.removeAt(i)
	}
	if m.used+weightBytes > m.capacity {
		m.evictFor(weightBytes)
		if m.used+weightBytes > m.capacity {
			return // cannot keep; drop silently (not an error)
		}
	}
	m.models = append(m.models, resident{key: k, weightBytes: weightBytes, completedAt: now})
	m.used += weightBytes
	if m.rec.Enabled() {
		m.rec.Emit(obs.Event{
			Type: obs.EvMemAdmit, Time: now, GPU: m.gpu, Job: int(k),
			Bytes: weightBytes,
		})
	}
}
