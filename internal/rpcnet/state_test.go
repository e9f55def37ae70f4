package rpcnet

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"hare/internal/core"
	"hare/internal/store"
	"hare/internal/testbed"
)

// canon round-trips a state through the snapshot codec into the form a
// recovery decodes: the durable fields exactly as they were, nil and
// empty slices included, and the state unbound. A live state and one
// rebuilt from the journal then compare with reflect.DeepEqual.
func canon(t testing.TB, s *testbed.State) *testbed.State {
	t.Helper()
	snap, err := decodeSnapshot(appendSnapshot(nil, &coordSnapshot{State: *s}))
	if err != nil {
		t.Fatal(err)
	}
	return &snap.State
}

// unbound is s without what Bind re-supplies (its unexported fields):
// what a snapshot of s must decode to.
func unbound(s *testbed.State) testbed.State {
	var out testbed.State
	src, dst := reflect.ValueOf(s).Elem(), reflect.ValueOf(&out).Elem()
	for i := range src.NumField() {
		if src.Type().Field(i).IsExported() {
			dst.Field(i).Set(src.Field(i))
		}
	}
	return out
}

// tapLog and tapStore keep a copy of every WAL record and snapshot a
// journal writes, so a test can hold the decoder to what the live path
// encoded.
type tapLog struct {
	store.Log
	recs [][]byte
}

func (l *tapLog) Append(rec []byte) error {
	l.recs = append(l.recs, bytes.Clone(rec))
	return l.Log.Append(rec)
}

type tapStore struct {
	store.Store
	snaps [][]byte
}

func (s *tapStore) Save(key string, data []byte) error {
	if key == snapshotKey && len(data) > 0 {
		s.snaps = append(s.snaps, bytes.Clone(data))
	}
	return s.Store.Save(key, data)
}

// scripted is one run of the scripted batch: the live coordinator and
// everything its journal wrote.
type scripted struct {
	co    *coordinator
	j     *Journal
	log   *tapLog
	snaps *tapStore
	ckpt  *saveHash
}

// saveHash is a checkpoint store that feeds every save, key and bytes,
// to a SHA-256 in the order the saves happen.
type saveHash struct {
	store.Store
	h hash.Hash
}

func (s *saveHash) Save(key string, data []byte) error {
	fmt.Fprintf(s.h, "%s %d\n", key, len(data))
	s.h.Write(data)
	return s.Store.Save(key, data)
}

// runScript drives a scripted batch — pushes in dispatch order, a
// mid-run fence with a computed re-plan, an executor error report
// (which fences through the handler), final reports — through the live
// transition path over a memory journal that snapshots every `every`
// pushes. After every transition it calls check with the record the
// transition journaled first, as far as the script knows it (LSN and
// SimTime are the coordinator's). With dispatch, every live GPU with an
// eligible task first takes it through dispatchLocked, Next's dispatch,
// undurably, so the fence finds survivors with work in flight. It
// returns the number of transitions.
func runScript(t testing.TB, every int, dispatch bool, check func(s *scripted, what string, want *testbed.Record)) int {
	t.Helper()
	in, plan, cl, models := chaosWorkload(t, 3, 9)
	s := &scripted{
		log: &tapLog{Log: store.NewMemLog()}, snaps: &tapStore{Store: store.NewMem()},
		ckpt: &saveHash{Store: store.NewMem(), h: sha256.New()},
	}
	s.j = NewJournal(s.snaps, s.log)
	co, err := newDistributed(in, plan, cl, models, DistributedOptions{
		TimeScale: 1e-6, Store: s.ckpt, Journal: s.j, SnapshotEvery: every,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.kill()
	s.co = co
	transitions := 0
	commit := func(what string, want *testbed.Record) {
		t.Helper()
		transitions++
		check(s, what, want)
	}

	// pushNext accepts a GPU's task in flight, or else its next
	// dispatch-eligible one, rotating over the live GPUs so rounds
	// interleave the way a real fleet's do.
	pushes := 0
	pushNext := func() bool {
		for k := 0; k < in.NumGPUs; k++ {
			g := (pushes + k) % in.NumGPUs
			if co.st.GPUs[g].Failed {
				continue
			}
			task, ok := co.st.Unclaimed(g)
			if !ok {
				i := co.st.Eligible(g)
				if i < 0 {
					continue
				}
				task = co.st.GPUs[g].Queue[i]
			}
			end := float64(pushes+1) * 0.01
			rep := testbed.PushReport{
				Task: task, GPU: g, Start: end - 0.004, TrainEnd: end,
				Switch: float64(pushes%3) * 0.001, Hit: pushes%2 == 0, Retries: pushes % 4 / 3,
				Grad: testGrad(task, 32),
			}
			var reply PushReply
			if err := co.push(PushArgs{Report: rep, Epoch: 1}, &reply); err != nil {
				t.Fatalf("every=%d push %v: %v", every, task, err)
			}
			pushes++
			commit("push "+task.String(), &testbed.Record{Kind: testbed.RecPush, Push: rep})
			return true
		}
		return false
	}

	total := in.NumTasks()
	for pushes < total/3 && pushNext() {
	}
	if dispatch {
		survivors := 0
		for g := range co.st.GPUs {
			if co.st.Eligible(g) < 0 {
				continue
			}
			var reply NextReply
			co.mu.Lock()
			_, err := co.dispatchLocked(g, &reply)
			co.mu.Unlock()
			if err != nil {
				t.Fatalf("every=%d dispatch to GPU %d: %v", every, g, err)
			}
			if g != 2 {
				survivors++
			}
		}
		if survivors == 0 {
			t.Fatalf("every=%d: no survivor of the fence has a task in flight", every)
		}
	}
	// A fence committed without markFailedLocked's trailing snapshot,
	// so it is replayed from the WAL tail, re-plan included.
	co.mu.Lock()
	fp := co.computeFenceLocked(2, "scripted fence")
	_, err = co.commitLocked(&testbed.Record{Kind: testbed.RecFence, SimTime: fp.SimTime, Fence: fp}, 2)
	co.mu.Unlock()
	if err != nil || !fp.HasQueues || len(fp.Stranded) == 0 {
		t.Fatalf("every=%d scripted fence: err=%v replanned=%v stranded=%d", every, err, fp.HasQueues, len(fp.Stranded))
	}
	commit("fence of GPU 2", &testbed.Record{Kind: testbed.RecFence, SimTime: fp.SimTime, Fence: fp})
	for pushes < 2*total/3 && pushNext() {
	}
	if err := co.report(ReportArgs{GPU: 1, Err: "xid 79", Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	commit("error report from GPU 1", &testbed.Record{Kind: testbed.RecReport, GPU: 1, Err: "xid 79"})
	for pushNext() {
	}
	if co.st.TasksLeft != 0 || pushes != total {
		t.Fatalf("every=%d script ended with %d tasks left after %d/%d pushes", every, co.st.TasksLeft, pushes, total)
	}
	if err := co.report(ReportArgs{GPU: 0, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	commit("final report from GPU 0", &testbed.Record{Kind: testbed.RecReport})
	if !co.finishedLocked() || co.st.Reschedule != 2 || len(co.st.FenceLog) != 2 {
		t.Errorf("every=%d finished=%v reschedules=%d fences=%d, want true/2/2",
			every, co.finishedLocked(), co.st.Reschedule, len(co.st.FenceLog))
	}
	if transitions != total+3 {
		t.Errorf("every=%d made %d transitions, want %d", every, transitions, total+3)
	}
	return transitions
}

// testGrad is a deterministic stand-in gradient: the parameter servers
// aggregate whatever they are pushed.
func testGrad(t core.TaskRef, dim int) []float64 {
	g := make([]float64, dim)
	for i := range g {
		g[i] = float64(int(t.Job)+1)*0.01 + float64(t.Round)*0.001 - float64(t.Index*i%7)*0.0005
	}
	return g
}

// TestScriptedBatchGolden pins what the scripted batch (runScript, with
// the fence over dispatched work) trains: a SHA-256 of every checkpoint
// save, key and bytes in the order the saves happen, then every job's
// loss history and round ends. The recovery checks compare a recovered
// run with a crash-free one, so they cannot see a change to the
// aggregation that moves both the same way; this can.
func TestScriptedBatchGolden(t *testing.T) {
	var run *scripted
	runScript(t, 3, true, func(s *scripted, _ string, _ *testbed.Record) { run = s })
	h := run.ckpt.h
	for jid := range run.co.in.Jobs {
		for _, x := range run.co.st.Jobs[jid].Losses {
			fmt.Fprintf(h, "loss %d %x\n", jid, math.Float64bits(x))
		}
		for _, x := range run.co.st.Jobs[jid].RoundEnds {
			fmt.Fprintf(h, "end %d %x\n", jid, math.Float64bits(x))
		}
	}
	const want = "c06895ab1fff5593dc61c493c224b47fb2dd1e235cd6922edf4b0a89ea08e731"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("scripted batch hashes to %s, want %s", got, want)
	}
}

// TestReplayMatchesLive runs the scripted batch (runScript) and after
// every transition rebuilds a second coordinator from the journal
// alone. The two must hold the same state, parameter servers included,
// at every prefix, whether the prefix sits in a snapshot or in
// the WAL tail — also when survivors of the fence hold tasks they took
// after the snapshot the fence is replayed over — and be as many pushes
// past their snapshot (a recovery writes none, so the replayed pushes
// count toward the next periodic one). And every record and
// snapshot the journal wrote must decode to exactly what the live path
// encoded, and re-encode to the same bytes.
func TestReplayMatchesLive(t *testing.T) {
	for _, tc := range []struct {
		every    int
		dispatch bool
	}{{1, false}, {3, false}, {1 << 30, false}, {1 << 30, true}} {
		every := tc.every
		seenRecs, seenSnaps := 0, 1 // newDistributed snapshots the fresh state
		runScript(t, every, tc.dispatch, func(s *scripted, what string, want *testbed.Record) {
			t.Helper()
			co := s.co
			recs := s.log.recs[seenRecs:]
			seenRecs = len(s.log.recs)
			if len(recs) == 0 {
				t.Fatalf("every=%d after %s: nothing journaled", every, what)
			}
			for i, p := range recs {
				rec, err := decodeRecord(p)
				if err != nil {
					t.Fatalf("every=%d after %s: record %d: %v", every, what, i, err)
				}
				if !bytes.Equal(appendRecord(nil, rec), p) {
					t.Fatalf("every=%d after %s: record %d does not re-encode to its bytes", every, what, i)
				}
				if i == 0 {
					w := *want
					w.LSN, w.SimTime = rec.LSN, rec.SimTime
					if !reflect.DeepEqual(rec, &w) {
						t.Fatalf("every=%d after %s: journaled\n%+v\ndecodes to\n%+v", every, what, &w, rec)
					}
				}
			}
			if len(s.snaps.snaps) > seenSnaps {
				seenSnaps = len(s.snaps.snaps)
				snap, err := decodeSnapshot(s.snaps.snaps[seenSnaps-1])
				if err != nil {
					t.Fatalf("every=%d after %s: snapshot: %v", every, what, err)
				}
				if live := unbound(co.st); !reflect.DeepEqual(snap.State, live) || !reflect.DeepEqual(snap.Instance, co.in) {
					t.Fatalf("every=%d after %s: snapshot decodes to a different state\nlive:    %+v\ndecoded: %+v", every, what, live, snap.State)
				}
			}

			re, _, err := rebuildCoordinator(s.j, RecoverOptions{Store: store.NewMem()})
			if err != nil {
				t.Fatalf("every=%d after %s: rebuild: %v", every, what, err)
			}
			if live, replayed := canon(t, co.st), canon(t, re.st); !reflect.DeepEqual(live, replayed) {
				t.Fatalf("every=%d after %s: replayed state differs from live\nlive:     %+v\nreplayed: %+v", every, what, live, replayed)
			}
			if re.pushesSinceSnap != co.pushesSinceSnap {
				t.Fatalf("every=%d after %s: rebuilt coordinator is %d pushes past its snapshot, live %d",
					every, what, re.pushesSinceSnap, co.pushesSinceSnap)
			}
		})
	}
}

// TestRecoverRejectsOutOfRangeRecords: a CRC-valid WAL tail record (or
// snapshot) that the live handlers would have refused fails the
// recovery with an error naming the LSN — it must neither panic nor
// leave the journal unusable for the next attempt.
func TestRecoverRejectsOutOfRangeRecords(t *testing.T) {
	in, plan, cl, models := chaosWorkload(t, 3, 9)
	ok := core.TaskRef{Job: 0, Round: 0, Index: 0}
	push := func(gpu int, task core.TaskRef, dim int) *testbed.Record {
		return &testbed.Record{Kind: testbed.RecPush, Push: testbed.PushReport{Task: task, GPU: gpu, TrainEnd: 1, Grad: make([]float64, dim)}}
	}
	queues := func(n int, t core.TaskRef) [][]core.TaskRef {
		q := make([][]core.TaskRef, n)
		q[0] = []core.TaskRef{t}
		return q
	}
	idle := func(n int) []core.TaskRef {
		s := make([]core.TaskRef, n)
		for g := range s {
			s[g] = testbed.NoTask
		}
		return s
	}
	replan := func(q [][]core.TaskRef, inflight []core.TaskRef) *testbed.Record {
		return &testbed.Record{Kind: testbed.RecFence, Fence: &testbed.FencePlan{GPU: 1, HasQueues: true, Queues: q, Inflight: inflight}}
	}
	running := func(t core.TaskRef) []core.TaskRef {
		s := idle(in.NumGPUs)
		s[0] = t
		return s
	}
	for _, bad := range []struct {
		name string
		rec  *testbed.Record
	}{
		{"push from GPU 99", push(99, ok, 32)},
		{"push from GPU -1", push(-1, ok, 32)},
		{"push for job 99", push(0, core.TaskRef{Job: 99}, 32)},
		{"push for round 99", push(0, core.TaskRef{Round: 99}, 32)},
		{"push for index 99", push(0, core.TaskRef{Index: 99}, 32)},
		{"push with a short gradient", push(0, ok, 3)},
		{"fence of GPU 99", &testbed.Record{Kind: testbed.RecFence, Fence: &testbed.FencePlan{GPU: 99}}},
		{"fence without a plan", &testbed.Record{Kind: testbed.RecFence}},
		{"fence stranding job 99", &testbed.Record{Kind: testbed.RecFence, Fence: &testbed.FencePlan{GPU: 1, Stranded: []core.TaskRef{{Job: 99}}}}},
		{"fence queueing round 99", replan(queues(in.NumGPUs, core.TaskRef{Round: 99}), idle(in.NumGPUs))},
		{"fence with one queue", replan(queues(1, ok), idle(in.NumGPUs))},
		{"fence with one in-flight slot", replan(queues(in.NumGPUs, ok), idle(1))},
		{"fence running job 99", replan(queues(in.NumGPUs, ok), running(core.TaskRef{Job: 99}))},
		{"fence queueing one task twice", replan(queues(in.NumGPUs, ok), running(ok))},
		{"report from GPU 99", &testbed.Record{Kind: testbed.RecReport, GPU: 99}},
		{"unknown record kind", &testbed.Record{Kind: 77}},
	} {
		name, rec := bad.name, bad.rec
		j := NewMemJournal()
		srv, _, _, err := ServeDistributed("127.0.0.1:0", in, plan, cl, models, DistributedOptions{TimeScale: 1e-3, Journal: j, LeaseTimeout: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Kill(); err != nil {
			t.Fatal(err)
		}
		if err := j.append(rec); err != nil {
			t.Fatal(err)
		}
		for attempt := 1; attempt <= 2; attempt++ {
			srv2, _, _, err := RecoverDistributed("127.0.0.1:0", j, RecoverOptions{})
			if err == nil {
				srv2.Kill()
				t.Fatalf("%s: recovery attempt %d accepted the record", name, attempt)
			}
			if !strings.Contains(err.Error(), "LSN 1") {
				t.Errorf("%s: recovery attempt %d error %q does not name LSN 1", name, attempt, err)
			}
		}
	}

	// A snapshot whose state does not fit its instance is refused before
	// anything indexes into it: one that covers too few GPUs, and one
	// whose model is narrower than the problem (whose round's closing
	// push would otherwise panic the recovered coordinator).
	for _, bad := range []struct {
		name, want string
		mutate     func(*testbed.State)
	}{
		{"one GPU", "covers 1 GPUs", func(s *testbed.State) { s.GPUs = s.GPUs[:1] }},
		{"a 5-wide model", "holds 5 parameters", func(s *testbed.State) { s.Jobs[0].Params = s.Jobs[0].Params[:5] }},
	} {
		j := NewMemJournal()
		co, err := newDistributed(in, plan, cl, models, DistributedOptions{TimeScale: 1e-3, Journal: j})
		if err != nil {
			t.Fatal(err)
		}
		bad.mutate(co.st)
		co.mu.Lock()
		co.snapshotLocked()
		co.mu.Unlock()
		if _, _, _, err := RecoverDistributed("127.0.0.1:0", j, RecoverOptions{}); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("recovery from a snapshot of %s = %v, want an error with %q", bad.name, err, bad.want)
		}
	}
}

// failingStore refuses every save once fail is set.
type failingStore struct {
	store.Store
	fail bool
}

func (s *failingStore) Save(key string, data []byte) error {
	if s.fail {
		return errors.New("disk full")
	}
	return s.Store.Save(key, data)
}

// TestFailedCheckpointFailsRun: a checkpoint save that fails when a
// round closes ends the run with that error — the coordinator never
// serves a round whose checkpoint did not reach the store.
func TestFailedCheckpointFailsRun(t *testing.T) {
	in, plan, cl, models := chaosWorkload(t, 3, 9)
	ckpt := &failingStore{Store: store.NewMem()}
	co, err := newDistributed(in, plan, cl, models, DistributedOptions{TimeScale: 1e-3, Store: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	defer co.kill()
	ckpt.fail = true
	job := in.Jobs[0]
	for k := 0; k < job.Scale && err == nil; k++ {
		task := core.TaskRef{Job: job.ID, Index: k}
		rep := testbed.PushReport{Task: task, TrainEnd: 1, Grad: testGrad(task, testbed.ProblemDim)}
		err = co.push(PushArgs{Report: rep, Epoch: 1}, &PushReply{})
	}
	if err == nil || !strings.Contains(err.Error(), "disk full") || co.runErr == nil {
		t.Errorf("closing a round on a failing store: push error %v, run error %v; want both to name the save", err, co.runErr)
	}
}
