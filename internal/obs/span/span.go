// Package span derives a causal span tree from the flat obs event
// stream: job → round → task-attempt → {queue, barrier-wait,
// switch-in, compute, comm} phases, each span carrying its parent ID
// and GPU placement. Spans are *derived observations* — the builder
// consumes events that the engines already emit (internal/sim, the
// in-process testbed, and the rpcnet coordinator's push-derived
// stream), so span construction can never feed back into scheduling
// and the nil-recorder zero-overhead property of the engines is
// untouched.
//
// Retries and migrations from the fault path materialize as sibling
// attempts under the task: each training attempt lost to a transient
// fault becomes a Lost attempt span, and a task stranded by a
// permanent GPU failure gets a zero-length stranded marker on the dead
// GPU next to its re-execution on the survivor (Migrated, with From
// naming the failed device).
//
// The tree's canonical order is a pure function of the spans' identity
// (job, round, index, attempt), not of event interleaving, so trees
// built from the simulator's serial stream and from the testbed's
// per-GPU goroutines compare structurally equal.
package span

import (
	"encoding/json"
	"fmt"
)

// Kind discriminates span types in the job → round → task → phase
// hierarchy.
type Kind uint8

const (
	// KindJob covers a job from its first observed activity to its
	// realized completion C_n.
	KindJob Kind = iota
	// KindRound covers one synchronization round of a job.
	KindRound
	// KindTask is one execution attempt of a task on a GPU (Attempt
	// numbers retries; Lost marks attempts consumed by transient
	// faults; a zero-length stranded marker has Attempt == -1).
	KindTask
	// KindQueue is pre-start GPU idleness waiting on the job's arrival.
	KindQueue
	// KindBarrierWait is pre-start GPU idleness waiting on the previous
	// round's barrier (relaxed scale-fixed synchronization).
	KindBarrierWait
	// KindSwitchIn is the inter-job switching stall paid before the
	// task's training started.
	KindSwitchIn
	// KindCompute is the training occupancy of one attempt.
	KindCompute
	// KindComm is the gradient synchronization tail after training.
	KindComm
)

func (k Kind) String() string {
	switch k {
	case KindJob:
		return "job"
	case KindRound:
		return "round"
	case KindTask:
		return "task"
	case KindQueue:
		return "queue"
	case KindBarrierWait:
		return "barrier-wait"
	case KindSwitchIn:
		return "switch-in"
	case KindCompute:
		return "compute"
	case KindComm:
		return "comm"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// NoID marks an absent span reference (a root's parent).
const NoID = -1

// Span is one node of the tree. IDs index Tree.Spans; parents always
// precede children.
type Span struct {
	ID     int  `json:"id"`
	Parent int  `json:"parent"` // NoID for roots
	Kind   Kind `json:"-"`

	// Job is always set; Round is -1 on job spans; Index and Attempt
	// are -1 above task level; GPU is -1 above task level.
	Job     int `json:"job"`
	Round   int `json:"round"`
	Index   int `json:"index"`
	Attempt int `json:"attempt"`
	GPU     int `json:"gpu"`
	// From is the predecessor job on a switch-in span, and the failed
	// source GPU on migrated/stranded attempt spans; -1 otherwise.
	From int `json:"from"`

	// Start and End are in seconds on the run's clock.
	Start float64 `json:"start"`
	End   float64 `json:"end"`

	// Lost marks attempts whose GPU time was wasted: training attempts
	// eaten by a transient fault, and stranded markers of migrated
	// tasks.
	Lost bool `json:"lost,omitempty"`
	// Migrated marks every attempt of a task that was re-placed after a
	// permanent GPU failure.
	Migrated bool `json:"migrated,omitempty"`
	// Hit marks a switch-in that scored a speculative-residency hit.
	Hit bool `json:"hit,omitempty"`
	// Note carries a short label (wait reason, model name, "stranded").
	Note string `json:"note,omitempty"`
}

// Dur returns the span length in seconds.
func (s Span) Dur() float64 { return s.End - s.Start }

// MarshalJSON renders the kind as its string name so exported trees
// are self-describing.
func (s Span) MarshalJSON() ([]byte, error) {
	type bare Span // drop methods to avoid recursion
	return json.Marshal(struct {
		Kind string `json:"kind"`
		bare
	}{Kind: s.Kind.String(), bare: bare(s)})
}

// Tree is a canonical, parent-before-child ordered span forest (one
// root per job).
type Tree struct {
	Spans []Span `json:"spans"`
}

// Roots returns the IDs of the job spans, in job order.
func (t *Tree) Roots() []int {
	var out []int
	for _, s := range t.Spans {
		if s.Parent == NoID {
			out = append(out, s.ID)
		}
	}
	return out
}

// Validate checks the tree's structural invariants: IDs are positions,
// parents precede their children, and every child's kind is legal
// under its parent's.
func (t *Tree) Validate() error {
	for i, s := range t.Spans {
		if s.ID != i {
			return fmt.Errorf("span: ID %d at position %d", s.ID, i)
		}
		if s.Parent == NoID {
			if s.Kind != KindJob {
				return fmt.Errorf("span: root %d has kind %s, want job", i, s.Kind)
			}
			continue
		}
		if s.Parent < 0 || s.Parent >= i {
			return fmt.Errorf("span: span %d has parent %d (parents must precede children)", i, s.Parent)
		}
		p := t.Spans[s.Parent]
		ok := false
		switch s.Kind {
		case KindRound:
			ok = p.Kind == KindJob
		case KindTask:
			ok = p.Kind == KindRound
		case KindQueue, KindBarrierWait, KindSwitchIn, KindCompute, KindComm:
			ok = p.Kind == KindTask
		}
		if !ok {
			return fmt.Errorf("span: span %d (%s) under parent of kind %s", i, s.Kind, p.Kind)
		}
		if s.Job != p.Job {
			return fmt.Errorf("span: span %d crosses jobs (%d under %d)", i, s.Job, p.Job)
		}
	}
	return nil
}
