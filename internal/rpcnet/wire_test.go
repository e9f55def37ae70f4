package rpcnet

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/faults"
	"hare/internal/model"
	"hare/internal/obs"
	"hare/internal/testbed"
)

// decodeMsg decodes one message (a frame's payload) as wireCodec reads
// it, into a body of the method's type.
func decodeMsg(p []byte, reply bool) (*wireMsg, error) {
	d := decoder{b: p}
	m := d.header(reply)
	if d.err == nil && (!reply || m.err == "") {
		m.body = newBody(m.method, reply)
		getBody(&d, m.body)
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return &m, nil
}

// fill sets every exported field reachable from v to a non-zero value
// of its own (n numbers them), through structs, pointers and slices.
func fill(t *testing.T, v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(t, v.Index(i), n)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(t, v.Field(i), n)
			}
		}
	default:
		t.Fatalf("fill has no value for a %v", v.Type())
	}
}

// TestWireCoversEveryField: every exported field of every argument and
// reply type, filled with a value of its own, crosses the wire intact.
// gob carried every field by reflection; a hand-written layout carries
// only what it names, so a field added without one fails here.
func TestWireCoversEveryField(t *testing.T) {
	for m, method := range wireMethods {
		for _, reply := range []bool{false, true} {
			want := reflect.ValueOf(newBody(m, reply))
			typ := want.Type().Elem()
			n := 0
			fill(t, want.Elem(), &n)
			frame, err := appendMsg(nil, &wireMsg{method: m, seq: uint64(n), body: want.Interface()}, reply)
			if err != nil {
				t.Fatalf("%s: %v", method, err)
			}
			got, err := decodeMsg(frame[frameHeader:], reply)
			if err != nil {
				t.Fatalf("%s %v: %v", method, typ, err)
			}
			if got.method != m || got.seq != uint64(n) || !reflect.DeepEqual(got.body, want.Interface()) {
				t.Errorf("%s %v crossed the wire as %+v, sent %+v", method, typ, got.body, want.Interface())
			}
		}
	}
}

// TestWireRefusesForeignFrames: a peer still speaking gob is refused
// with the layout version named, a length above the cap is refused
// before anything is allocated, a frame that claims more bytes than
// arrive costs what arrived, not what it claimed, and a Next from a
// build whose NextArgs still carried a dispatch sequence number is
// refused rather than misread.
func TestWireRefusesForeignFrames(t *testing.T) {
	var gobbed bytes.Buffer
	if err := gob.NewEncoder(&gobbed).Encode(&rpc.Request{ServiceMethod: DistributedName + ".Config"}); err != nil {
		t.Fatal(err)
	}
	if _, err := (&frameReader{r: &gobbed}).next(); err == nil || !strings.Contains(err.Error(), "not wire layout version 0x82") {
		t.Errorf("reading a gob request = %v, want an error naming wire layout version 0x82", err)
	}
	huge := []byte{layoutVersion, 0, 0, 0, 0x10} // 256 MiB
	var err error
	if _, size := allocated(func() { _, err = (&frameReader{r: bytes.NewReader(huge)}).next() }); err == nil || !strings.Contains(err.Error(), "exceeds") || size > 1024 {
		t.Errorf("a 256 MiB frame: %v after %d bytes allocated, want a refusal before any buffer", err, size)
	}
	short := append([]byte{layoutVersion, 0, 0, 0x10, 0}, make([]byte, 100)...) // claims 1 MiB
	_, size := allocated(func() { _, err = (&frameReader{r: bytes.NewReader(short)}).next() })
	if !errors.Is(err, io.ErrUnexpectedEOF) || size > 4096 {
		t.Errorf("a 1 MiB frame cut after 100 bytes: %v after %d bytes allocated, want io.ErrUnexpectedEOF within 4 KiB", err, size)
	}
	next, err := methodIndex(DistributedName + ".Next")
	if err != nil {
		t.Fatal(err)
	}
	old := encoder{[]byte{byte(next)}}
	old.uint(1) // the call's sequence number
	old.int(0)  // GPU
	old.uint(3) // the old layout's dispatch sequence number
	old.uint(1) // Epoch
	old.uint(9) // Call
	if m, err := decodeMsg(old.b, false); err == nil || !strings.Contains(err.Error(), "trailing bytes") {
		t.Errorf("an old-layout NextArgs decoded to %+v, %v; want a trailing-bytes refusal", m, err)
	}
}

// dispatchBatch serves one job of two rounds of four tasks on four
// GPUs: GPU 0 runs round 0 but for its last task, which GPU 1 runs,
// then all of round 1. So GPU 0's pushes of its first two tasks find
// its next task eligible, its push of the third finds round 1 waiting on
// GPU 1, and its last push ends the batch.
func dispatchBatch(t testing.TB) (*Server, string, *obs.Registry) {
	t.Helper()
	return dispatchBatchAt(t, "127.0.0.1:0")
}

// dispatchBatchAt is dispatchBatch served on addr.
func dispatchBatchAt(t testing.TB, addr string) (*Server, string, *obs.Registry) {
	t.Helper()
	cl := cluster.New([]cluster.Spec{{Type: cluster.V100, Count: 4}}, 4)
	in := &core.Instance{
		Jobs:    []*core.Job{{ID: 0, Name: "job-0", Model: "ResNet50", Weight: 1, Rounds: 2, Scale: 4}},
		NumGPUs: 4,
		Train:   [][]float64{{1, 1, 1, 1}},
		Sync:    [][]float64{{0.25, 0.25, 0.25, 0.25}},
	}
	plan := core.NewSchedule(in)
	plan.Place(task(0, 3), 1, 0)
	for i, t := range []core.TaskRef{task(0, 0), task(0, 1), task(0, 2), task(1, 0), task(1, 1), task(1, 2), task(1, 3)} {
		plan.Place(t, 0, float64(i)*1.25)
	}
	reg := obs.NewRegistry()
	srv, addr, _, err := ServeDistributed(addr, in, plan, cl, []*model.Model{model.MustByName("ResNet50")},
		DistributedOptions{TimeScale: 1e-3, LeaseTimeout: time.Hour, Metrics: reg}) // no heartbeats: no fences
	if err != nil {
		t.Fatal(err)
	}
	return srv, addr, reg
}

// task names a task of dispatchBatch's one job.
func task(round, index int) core.TaskRef { return core.TaskRef{Job: 0, Round: round, Index: index} }

func testPush(task core.TaskRef, gpu int) PushArgs {
	return PushArgs{Epoch: 1, Report: testbed.PushReport{
		Task: task, GPU: gpu, Start: 1, TrainEnd: 2, Grad: make([]float64, testbed.ProblemDim),
	}}
}

// TestPushCarriesDispatch: a Push reply carries the pushing GPU's next
// dispatch when one is eligible, under Next's rule (testbed.State.Next).
// A push whose GPU has work ready returns that task without a Next call;
// a push delivered twice — retried after a lost reply, or duplicated on
// the wire — returns the same dispatch, never a second one; a push with
// nothing eligible returns no task, and the Next that follows blocks and
// dispatches as before; and the reply to the run's last push says Done.
func TestPushCarriesDispatch(t *testing.T) {
	srv, addr, reg := dispatchBatch(t)
	defer srv.Kill()
	conn, err := dialRPCSeeded(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	nexts := reg.Counter(`hare_rpc_server_calls_total{method="Next"}`)
	push := func(args PushArgs) *PushReply {
		t.Helper()
		var reply PushReply
		if err := conn.call(mPush, &args, &reply); err != nil {
			t.Fatalf("push of %v: %v", args.Report.Task, err)
		}
		return &reply
	}
	// gpu0 reports GPU 0's in-flight task and queue length.
	gpu0 := func() (core.TaskRef, int) {
		srv.co.mu.Lock()
		defer srv.co.mu.Unlock()
		return srv.co.st.GPUs[0].Inflight, len(srv.co.st.GPUs[0].Queue)
	}
	var first NextReply
	if err := conn.call(mNext, &NextArgs{GPU: 0, Epoch: 1}, &first); err != nil || first.Task != task(0, 0) {
		t.Fatalf("GPU 0's first Next = %+v, %v; want %v", first, err, task(0, 0))
	}

	// Work ready: the reply carries it, and no Next is served.
	r := push(testPush(task(0, 0), 0))
	if r.Next == nil || r.Next.Task != task(0, 1) || r.Next.Done {
		t.Fatalf("push of %v carried %+v, want the dispatch of %v", task(0, 0), r.Next, task(0, 1))
	}
	if n := nexts.Value(); n != 1 {
		t.Errorf("the server served %g Next calls, want the first one only", n)
	}
	end := r.Completion

	// Retried after a lost reply: the same dispatch, sent again.
	again := push(testPush(task(0, 0), 0))
	if !reflect.DeepEqual(again, r) {
		t.Errorf("the retried push replied %+v, first reply was %+v", again, r)
	}
	if inflight, queued := gpu0(); inflight != task(0, 1) || queued != 5 {
		t.Errorf("after a retried push GPU 0 has %v in flight and %d queued; want %v and 5", inflight, queued, task(0, 1))
	}

	// Duplicated on the wire: two deliveries, one dispatch.
	dup := newNetChaos(&faults.NetChaos{Dup: 1}, 1, 0, nil, nil)
	r = &PushReply{}
	dupArgs := testPush(task(0, 1), 0)
	if err := dup.do(conn, mPush, &dupArgs, r); err != nil {
		t.Fatal(err)
	}
	if r.Next == nil || r.Next.Task != task(0, 2) {
		t.Fatalf("duplicated push of %v carried %+v, want the dispatch of %v", task(0, 1), r.Next, task(0, 2))
	}
	if inflight, queued := gpu0(); inflight != task(0, 2) || queued != 4 {
		t.Errorf("after a duplicated push GPU 0 has %v in flight and %d queued; want %v and 4", inflight, queued, task(0, 2))
	}
	end = max(end, r.Completion)

	// Nothing eligible: round 1 waits on GPU 1's task, so no dispatch,
	// and GPU 0's Next blocks until GPU 1 pushes it.
	r = push(testPush(task(0, 2), 0))
	if r.Next != nil {
		t.Fatalf("push of %v with round 1 waiting carried %+v, want no dispatch", task(0, 2), r.Next)
	}
	end = max(end, r.Completion)
	var blockedReply NextReply
	blocked := goCall(conn, mNext, &NextArgs{GPU: 0, Epoch: 1}, &blockedReply)
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-blocked:
		t.Fatalf("GPU 0's Next returned %+v, %v before round 0 completed", blockedReply, err)
	default:
	}
	var onGPU1 NextReply
	if err := conn.call(mNext, &NextArgs{GPU: 1, Epoch: 1}, &onGPU1); err != nil || onGPU1.Task != task(0, 3) {
		t.Fatalf("GPU 1's Next = %+v, %v; want %v", onGPU1, err, task(0, 3))
	}
	r = push(testPush(task(0, 3), 1))
	if r.Next != nil {
		t.Errorf("GPU 1's push with its queue empty carried %+v, want no dispatch", r.Next)
	}
	end = max(end, r.Completion)
	select {
	case err = <-blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("GPU 0's Next still blocked after round 0 completed")
	}
	if err != nil || blockedReply.Task != task(1, 0) || blockedReply.RoundEnd != end {
		t.Fatalf("GPU 0's blocked Next = %+v, %v; want %v with round 0's end %g", blockedReply, err, task(1, 0), end)
	}

	// Round 1 runs on piggybacked dispatches alone, and the last push's
	// reply ends the run.
	for i := 0; i < 4; i++ {
		r = push(testPush(task(1, i), 0))
		if i < 3 && (r.Next == nil || r.Next.Task != task(1, i+1)) {
			t.Fatalf("push of %v carried %+v, want the dispatch of %v", task(1, i), r.Next, task(1, i+1))
		}
	}
	if r.Next == nil || !r.Next.Done {
		t.Errorf("the run's last push carried %+v, want Done", r.Next)
	}
	if n := nexts.Value(); n != 3 {
		t.Errorf("the server served %g Next calls, want 3: the first, GPU 1's and the blocked one", n)
	}
}

// TestRehandshakeAfterTornNext: a Next left blocked on a connection
// that closed does not keep GPU 0's task from the session that
// re-handshakes after it. The live session's Next is sent the task once
// the round barrier lifts, its pushes complete the batch with every task
// traced once, and the dead connection's handler returns by the run's
// end, so the goroutine count settles.
func TestRehandshakeAfterTornNext(t *testing.T) {
	srv, addr, _ := dispatchBatch(t)
	defer srv.Kill()
	dial := func() *client {
		t.Helper()
		conn, err := dialRPCSeeded(addr, 0)
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}
	call := func(conn *client, m int, args, reply any) {
		t.Helper()
		if err := conn.call(m, args, reply); err != nil {
			t.Fatalf("%s %+v: %v", wireMethods[m], args, err)
		}
	}
	handshake := func(conn *client, g int) {
		t.Helper()
		var cfg ExecutorConfigReply
		call(conn, mConfig, &ExecutorConfigArgs{GPU: g}, &cfg)
	}

	// GPU 0 runs round 0's first three tasks; the third push finds round 1
	// waiting on GPU 1's task.
	conn := dial()
	defer conn.Close()
	handshake(conn, 0)
	handshake(conn, 1)
	var d NextReply
	call(conn, mNext, &NextArgs{GPU: 0, Epoch: 1}, &d)
	for i := 0; i < 3; i++ {
		var r PushReply
		args := testPush(task(0, i), 0)
		call(conn, mPush, &args, &r)
		if (i < 2) != (r.Next != nil) {
			t.Fatalf("push of %v carried %+v", task(0, i), r.Next)
		}
	}
	before := runtime.NumGoroutine()

	// A session's Next blocks, and its connection dies under it.
	zombie := dial()
	handshake(zombie, 0)
	torn := goCall(zombie, mNext, &NextArgs{GPU: 0, Epoch: 1}, &NextReply{})
	time.Sleep(20 * time.Millisecond)
	zombie.Close()
	<-torn

	// The GPU re-handshakes on a new connection and asks again.
	live := dial()
	handshake(live, 0)
	var liveReply NextReply
	waiting := goCall(live, mNext, &NextArgs{GPU: 0, Epoch: 1}, &liveReply)
	var onGPU1 NextReply
	call(conn, mNext, &NextArgs{GPU: 1, Epoch: 1}, &onGPU1)
	gpu1Push := testPush(onGPU1.Task, 1)
	call(conn, mPush, &gpu1Push, &PushReply{})
	var err error
	select {
	case err = <-waiting:
	case <-time.After(10 * time.Second):
		t.Fatal("the live session's Next still blocked after round 0 completed")
	}
	if err != nil || liveReply.Task != task(1, 0) {
		t.Fatalf("the live session's Next = %+v, %v; want %v", liveReply, err, task(1, 0))
	}
	for i, next := 0, &liveReply; !next.Done; i++ {
		if next.Task != task(1, i) {
			t.Fatalf("the live session was dispatched %v, want %v", next.Task, task(1, i))
		}
		var r PushReply
		args := testPush(next.Task, 0)
		call(live, mPush, &args, &r)
		if r.Next == nil {
			t.Fatalf("push of %v carried no dispatch", next.Task)
		}
		next = r.Next
	}
	srv.co.mu.Lock()
	traced := make(map[core.TaskRef]bool)
	for _, rec := range srv.co.st.Records {
		if traced[rec.Task] {
			t.Errorf("task %v traced twice", rec.Task)
		}
		traced[rec.Task] = true
	}
	left := srv.co.st.TasksLeft
	srv.co.mu.Unlock()
	if left != 0 || len(traced) != 8 {
		t.Fatalf("the batch ended with %d tasks left and %d distinct tasks traced, want 0 and 8", left, len(traced))
	}

	live.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5 s after the run, %d before the torn session", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// tapConn records the bytes a client writes and reads.
type tapConn struct {
	net.Conn
	mu          sync.Mutex
	sent, recvd []byte
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.sent = append(c.sent, p...)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.recvd = append(c.recvd, p[:n]...)
	c.mu.Unlock()
	return n, err
}

// frames splits a recorded stream into its frames.
func frames(t testing.TB, stream []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for f := (frameReader{r: bytes.NewReader(stream)}); len(stream) > 0; {
		p, err := f.next()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, stream[:frameHeader+len(p)])
		stream = stream[frameHeader+len(p):]
	}
	return out
}

// FuzzWireDecode feeds arbitrary bytes to the frame reader and the
// message decoder, as a request and as a reply. Whatever the input, they
// return a message or an error, never a panic; they stay within
// FuzzJournalDecode's allocation budget, so a corrupt length or count
// costs nothing; and a frame they accept re-encodes to the same bytes.
// The seeds are every frame of a scripted session with a live
// coordinator — a request and a reply of each method, a piggybacked
// dispatch and an error reply — each also cut in half and short by one
// byte.
func FuzzWireDecode(f *testing.F) {
	srv, addr, _ := dispatchBatch(f)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		f.Fatal(err)
	}
	tap := &tapConn{Conn: raw}
	conn := rpc.NewClientWithCodec(newWireCodec(tap))
	for _, c := range []struct {
		method      string
		args, reply any
	}{
		{"Config", &ExecutorConfigArgs{GPU: 0, Call: 1}, &ExecutorConfigReply{}},
		{"Heartbeat", &HeartbeatArgs{GPU: 0, Epoch: 1, Call: 2}, &struct{}{}},
		{"Next", &NextArgs{GPU: 0, Epoch: 1, Call: 3}, &NextReply{}},
		{"Push", &PushArgs{Report: testPush(core.TaskRef{}, 0).Report, Epoch: 1, Call: 4}, &PushReply{}},
		{"Report", &ReportArgs{GPU: 0, Err: "device fell off the bus", Epoch: 1, Call: 5}, &struct{}{}},
		{"Report", &ReportArgs{GPU: 9, Epoch: 1, Call: 6}, &struct{}{}}, // an error reply
	} {
		_ = conn.Call(DistributedName+"."+c.method, c.args, c.reply)
	}
	conn.Close()
	srv.Kill()
	tap.mu.Lock()
	seeds := append(frames(f, tap.sent), frames(f, tap.recvd)...)
	tap.mu.Unlock()
	if len(seeds) != 12 {
		f.Fatalf("the scripted session put %d frames on the wire, want 12", len(seeds))
	}
	for _, seed := range seeds {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:len(seed)-1])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, reply := range []bool{false, true} {
			in := &frameReader{r: bytes.NewReader(data)}
			var m *wireMsg
			var err error
			objects, size := allocated(func() {
				var p []byte
				if p, err = in.next(); err == nil {
					m, err = decodeMsg(p, reply)
				}
			})
			if n := uint64(len(data)); objects > n+32 || size > 32*n+4096 {
				t.Fatalf("decoding %d bytes (reply %v) allocated %d objects, %d bytes", n, reply, objects, size)
			}
			if err != nil {
				continue
			}
			frame, err := appendMsg(nil, m, reply)
			if err != nil || !bytes.HasPrefix(data, frame) || len(frame) != frameHeader+len(in.buf) {
				t.Fatalf("message %+v decoded from %x (reply %v) re-encodes to %x, %v", m, data, reply, frame, err)
			}
		}
	})
}
