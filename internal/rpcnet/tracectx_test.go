package rpcnet

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/model"
	"hare/internal/obs"
	"hare/internal/sched"
	"hare/internal/testbed"
	"hare/internal/workload"
)

// TestTraceContextPropagation runs a small distributed batch with
// per-process seq recorders and checks the trace-context contract end
// to end: every executor RPC carries a unique call id the
// coordinator's server-side event echoes, server events carry the
// journal LSN watermark, WAL appends are dense, lease renewals flow,
// and each process's seq is monotone.
func TestTraceContextPropagation(t *testing.T) {
	cl := cluster.New([]cluster.Spec{{Type: cluster.V100, Count: 1}, {Type: cluster.T4, Count: 1}}, 4)
	specs := workload.Generate(workload.Options{NumJobs: 3, RoundsScale: 0.05, MaxSync: cl.Size(), Seed: 7})
	in := profileFor(t, specs, cl)
	plan, err := sched.NewHare().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	models := make([]*model.Model, len(specs))
	for i, s := range specs {
		models[i] = model.MustByName(s.Model)
	}

	coordSink := obs.NewCollectSink()
	execSinks := make([]*obs.CollectSink, cl.Size())
	reg := obs.NewRegistry()
	srv, addr, wait, err := ServeDistributed("127.0.0.1:0", in, plan, cl, models, DistributedOptions{
		TimeScale: 1e-3, Speculative: true,
		// Fast heartbeats so short batches still exercise lease renewal.
		HeartbeatInterval: 2 * time.Millisecond,
		Journal:           NewMemJournal(),
		Recorder:          obs.NewSeqRecorder(coordSink),
		Metrics:           reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for g := 0; g < cl.Size(); g++ {
		execSinks[g] = obs.NewCollectSink()
		go func(g int) {
			if err := RunExecutorOpts(addr, g, ExecutorOptions{
				Recorder: obs.NewSeqRecorder(execSinks[g]),
				Metrics:  reg,
			}); err != nil {
				t.Errorf("executor %d: %v", g, err)
			}
		}(g)
	}
	if _, err := wait(); err != nil {
		t.Fatal(err)
	}

	coord := coordSink.Events()
	type key struct {
		gpu   int
		call  uint64
		epoch uint64
	}
	servers := map[key]obs.Event{}
	var walLSNs []uint64
	leases := 0
	var lastSeq uint64
	for _, e := range coord {
		if e.Seq <= lastSeq {
			t.Fatalf("coordinator seq not monotone: %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		switch e.Type {
		case obs.EvRPCServer:
			if e.Call != 0 {
				if _, dup := servers[key{e.GPU, e.Call, e.Epoch}]; dup {
					t.Fatalf("duplicate server event for call %d gpu %d", e.Call, e.GPU)
				}
				servers[key{e.GPU, e.Call, e.Epoch}] = e
			}
		case obs.EvWALAppend:
			walLSNs = append(walLSNs, e.LSN)
		case obs.EvLeaseRenew:
			leases++
		}
	}
	if len(servers) == 0 {
		t.Fatal("coordinator emitted no rpc.server events")
	}
	if leases == 0 {
		t.Fatal("coordinator emitted no lease renewals")
	}
	if len(walLSNs) == 0 {
		t.Fatal("coordinator emitted no wal.append events")
	}
	for i, lsn := range walLSNs {
		if lsn != uint64(i+1) {
			t.Fatalf("wal.append LSNs not dense from 1: %v", walLSNs)
		}
	}

	// Every client-side Push must find its matching server event, and
	// the server's Push events must carry the LSN watermark (a push is
	// journaled before its reply).
	matched := 0
	for g, sink := range execSinks {
		var prev uint64
		for _, e := range sink.Events() {
			if e.Seq <= prev {
				t.Fatalf("executor %d seq not monotone: %d after %d", g, e.Seq, prev)
			}
			prev = e.Seq
			if e.Type != obs.EvRPCClient || !strings.HasPrefix(e.Note, "Push") {
				continue
			}
			if e.Call == 0 {
				t.Fatalf("executor %d Push without call id: %+v", g, e)
			}
			sv, ok := servers[key{e.GPU, e.Call, e.Epoch}]
			if !ok {
				t.Fatalf("executor %d Push call %d has no server event", g, e.Call)
			}
			if sv.LSN == 0 {
				t.Fatalf("server Push event missing LSN watermark: %+v", sv)
			}
			matched++
		}
	}
	if matched == 0 {
		t.Fatal("no Push client events matched server events")
	}

	var buf strings.Builder
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, family := range []string{
		`hare_rpc_server_calls_total{method="Push"}`,
		`hare_rpc_client_calls_total{method="Push"}`,
		"hare_lease_renewals_total",
		"hare_wal_appends_total",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("metrics missing %s", family)
		}
	}
}

// TestInspectDir builds a durable journal by hand and checks the
// offline inspector: snapshot summary, WAL timeline, and the LSN
// continuity cross-check.
func TestInspectDir(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenDirJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	push := func(gpu int, simTime float64) *testbed.Record {
		return &testbed.Record{Kind: testbed.RecPush, SimTime: simTime, Push: testbed.PushReport{
			Task: core.TaskRef{Job: 0, Round: 0, Index: gpu}, GPU: gpu,
			Start: simTime - 1, TrainEnd: simTime,
		}}
	}
	if err := j.append(push(0, 5)); err != nil {
		t.Fatal(err)
	}
	if err := j.append(&testbed.Record{Kind: testbed.RecReport, SimTime: 6, GPU: 1}); err != nil {
		t.Fatal(err)
	}
	// Snapshot folds LSN 1-2 and resets the WAL.
	if _, err := j.writeSnapshot(&coordSnapshot{SimTime: 6.5, State: testbed.State{
		Epoch: 2, Recovered: 1,
		GPUs: []testbed.GPUState{{}, {Failed: true}}, TasksLeft: 3,
	}}); err != nil {
		t.Fatal(err)
	}
	if err := j.append(push(1, 7)); err != nil {
		t.Fatal(err)
	}
	if err := j.append(&testbed.Record{Kind: testbed.RecFence, SimTime: 8, Fence: &testbed.FencePlan{
		GPU: 1, Reason: "lease expired", Stranded: []core.TaskRef{{Job: 1}}, HasQueues: true,
	}}); err != nil {
		t.Fatal(err)
	}
	if err := j.append(&testbed.Record{Kind: testbed.RecRecover, SimTime: 9}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	d, err := InspectDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !d.HasSnapshot {
		t.Fatal("snapshot not detected")
	}
	s := d.Snapshot
	if s.Epoch != 2 || s.Recovered != 1 || s.LastLSN != 2 || s.Fenced != 1 || s.NumGPUs != 2 || s.TasksLeft != 3 {
		t.Fatalf("snapshot summary: %+v", s)
	}
	if len(d.Entries) != 3 {
		t.Fatalf("got %d WAL entries, want 3: %+v", len(d.Entries), d.Entries)
	}
	if d.Entries[0].LSN != 3 || d.Entries[0].Kind != "push" || d.Entries[0].GPU != 1 {
		t.Fatalf("entry 0: %+v", d.Entries[0])
	}
	if d.Entries[1].Kind != "fence" || !strings.Contains(d.Entries[1].Detail, "reason=lease expired") {
		t.Fatalf("entry 1: %+v", d.Entries[1])
	}
	if e := d.Entries[2]; e.LSN != 5 || e.Kind != "recover" || e.GPU != -1 || e.Detail != "coordinator recovered: epoch +1" {
		t.Fatalf("entry 2: %+v", e)
	}
	if len(d.Gaps) != 0 {
		t.Fatalf("healthy journal reported gaps: %v", d.Gaps)
	}

	var buf bytes.Buffer
	d.WriteText(&buf)
	text := buf.String()
	for _, want := range []string{
		"snapshot: epoch=2 recovered=1",
		"wal: 3 record(s)",
		"recover coordinator recovered: epoch +1",
		"lsn continuity: ok",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("WriteText missing %q:\n%s", want, text)
		}
	}
}

// TestInspectDirFlagsGaps corrupts LSN continuity and checks the
// inspector reports it.
func TestInspectDirFlagsGaps(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenDirJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append(&testbed.Record{Kind: testbed.RecReport, SimTime: 1, GPU: 0}); err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	j.lsn += 4 // simulate lost records
	j.mu.Unlock()
	if err := j.append(&testbed.Record{Kind: testbed.RecReport, SimTime: 2, GPU: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := InspectDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Gaps) != 1 || !strings.Contains(d.Gaps[0], "LSN jumps 1 -> 6") {
		t.Fatalf("gaps = %v, want one jump 1 -> 6", d.Gaps)
	}
	var buf bytes.Buffer
	d.WriteText(&buf)
	if !strings.Contains(buf.String(), "lsn continuity: VIOLATIONS") {
		t.Fatalf("WriteText did not flag the violation:\n%s", buf.String())
	}
}
