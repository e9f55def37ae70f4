package obs

// TaskRun is one executed task as its engine measured it, and the one
// place the task-level event sequence is written: barrier-wait,
// job-switch, task-start (BeginTask), then one fault.injected per lost
// attempt and task-finish (EndTask). The simulator, the in-process
// testbed and the distributed coordinator all emit through it, so the
// three streams cannot drift apart in shape, order or field use.
type TaskRun struct {
	GPU, Job, Round, Index int
	// PrevJob is the job the lane ran before (-1 on a cold lane) and
	// PrevFree the time its previous training ended.
	PrevJob  int
	PrevFree float64
	// Start is the realized training start, after any switch stall;
	// Train the lane's occupancy, lost attempts included; Sync the
	// gradient synchronization that follows; End the completion. Train
	// and Sync are carried as measured rather than derived from the
	// endpoints, so an engine's events repeat its own arithmetic.
	Start, Train, Sync, End float64
	// Switch is the stall paid before Start, itemized when the engine
	// knows the breakdown (the coordinator does not: executors report
	// only the stall); Hit marks a speculative-residency hit.
	Switch, Clean, Context, Init, Transfer float64
	Hit                                    bool
	// Retries counts training attempts lost to transient faults; Model
	// is the job's model name, the finish event's note.
	Retries int
	Model   string
}

// BeginTask emits what precedes a task's training: the lane's idle wait
// beyond its own readiness and switch stall (on the previous round's
// barrier, or on the job's arrival for a round-0 task), the inter-job
// switch, and the start.
func (r *Recorder) BeginTask(t TaskRun) {
	if !r.Enabled() {
		return
	}
	if wait := t.Start - t.Switch - t.PrevFree; wait > 0 {
		reason := "round"
		if t.Round == 0 {
			reason = "arrival"
		}
		r.Emit(Event{
			Type: EvBarrierWait, Time: t.PrevFree, GPU: t.GPU,
			Job: t.Job, Round: t.Round, Index: t.Index,
			Dur: wait, Note: reason,
		})
	}
	if t.Switch > 0 {
		r.Emit(Event{
			Type: EvJobSwitch, Time: t.Start - t.Switch, GPU: t.GPU,
			Job: t.Job, From: t.PrevJob, Dur: t.Switch,
			Clean: t.Clean, Context: t.Context, Init: t.Init,
			Transfer: t.Transfer, Hit: t.Hit,
		})
	}
	r.Emit(Event{
		Type: EvTaskStart, Time: t.Start, GPU: t.GPU,
		Job: t.Job, Round: t.Round, Index: t.Index,
	})
}

// EndTask emits the task's lost attempts and its finish. Executors do
// not report attempt boundaries, so the lost attempts tile the occupancy
// evenly — which is what the simulator's equal attempts do anyway.
func (r *Recorder) EndTask(t TaskRun) {
	if !r.Enabled() {
		return
	}
	attempt := t.Train / float64(t.Retries+1)
	for a := 1; a <= t.Retries; a++ {
		r.Emit(Event{
			Type: EvFaultInjected, Time: t.Start + attempt*float64(a), GPU: t.GPU,
			Job: t.Job, Round: t.Round, Index: t.Index, Dur: attempt,
		})
	}
	r.Emit(Event{
		Type: EvTaskFinish, Time: t.End, GPU: t.GPU,
		Job: t.Job, Round: t.Round, Index: t.Index,
		Dur: t.End - t.Start, Train: t.Train, Sync: t.Sync,
		Note: t.Model,
	})
}
