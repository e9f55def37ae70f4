package rpcnet

import (
	"errors"
	"io"
	"runtime"
	"testing"
	"time"
)

// goCall runs one call on a goroutine of its own; the channel yields its
// error.
func goCall(c *client, m int, args, reply any) <-chan error {
	done := make(chan error, 1)
	go func() { done <- c.call(m, args, reply) }()
	return done
}

// TestPushesKeepGoroutineCount: a thousand pushes on one connection run
// on the connection's loop, so the goroutine count never rises above
// what serving the connection took before the first.
func TestPushesKeepGoroutineCount(t *testing.T) {
	srv, addr, _ := dispatchBatchAt(t, "mem:")
	defer srv.Kill()
	conn, err := dialRPCSeeded(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	args := testPush(task(0, 0), 0)
	var r PushReply
	if err := conn.call(mPush, &args, &r); err != nil {
		t.Fatal(err)
	}
	fixed := runtime.NumGoroutine()
	for i := range 1000 {
		if err := conn.call(mPush, &args, &r); err != nil {
			t.Fatal(err)
		}
		if n := runtime.NumGoroutine(); n > fixed {
			t.Fatalf("push %d: %d goroutines, %d serving the connection before", i, n, fixed)
		}
	}
}

// rawNexts writes a Next for each GPU on c, numbered from seq, then a
// Heartbeat, and reads the Heartbeat's reply: the connection's loop
// reads requests in order, so once it answers, every Next has been
// served or parked.
func rawNexts(t *testing.T, c *wireCodec, seq uint64, gpus ...int) {
	t.Helper()
	for i, g := range gpus {
		if err := c.write(&wireMsg{method: mNext, seq: seq + uint64(i), body: &NextArgs{GPU: g, Epoch: 1}}, false); err != nil {
			t.Fatal(err)
		}
	}
	hb := seq + uint64(len(gpus))
	if err := c.write(&wireMsg{method: mHeartbeat, seq: hb, body: &HeartbeatArgs{GPU: 0, Epoch: 1}}, false); err != nil {
		t.Fatal(err)
	}
	if m, err := c.readHeader(true); err != nil || m.seq != hb || m.err != "" {
		t.Fatalf("reply behind %d parked Nexts = %+v, %v; want the Heartbeat's (seq %d)", len(gpus), m, err, hb)
	}
}

// TestParkedNextsKeepGoroutineCount: a Next with nothing ready on its
// GPU is parked in the coordinator's state, not on a goroutine, so
// parking one for each of three GPUs on one connection leaves the
// goroutine count where serving the connection put it; the parked Next
// whose round barrier lifts is then answered on the same connection.
func TestParkedNextsKeepGoroutineCount(t *testing.T) {
	srv, addr, _ := dispatchBatchAt(t, "mem:")
	defer srv.Kill()
	raw, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	c := newWireCodec(raw)
	roundTrip := func(m int, seq uint64, args, reply any) {
		t.Helper()
		if err := c.write(&wireMsg{method: m, seq: seq, body: args}, false); err != nil {
			t.Fatal(err)
		}
		if got, err := c.readHeader(true); err != nil || got.seq != seq || got.err != "" || c.readBody(reply) != nil {
			t.Fatalf("%s reply = %+v, %v; want seq %d served", wireMethods[m], got, err, seq)
		}
	}
	// GPU 0 runs round 0's three tasks, so its next Next waits on GPU
	// 1's; GPUs 2 and 3 have no work at all.
	roundTrip(mNext, 0, &NextArgs{GPU: 0, Epoch: 1}, &NextReply{})
	for i := range 3 {
		args := testPush(task(0, i), 0)
		roundTrip(mPush, uint64(1+i), &args, &PushReply{})
	}
	fixed := runtime.NumGoroutine()
	rawNexts(t, c, 10, 0, 2, 3)
	if n := runtime.NumGoroutine(); n > fixed {
		t.Fatalf("three parked Nexts: %d goroutines, %d serving the connection before", n, fixed)
	}

	// GPU 1's push lifts round 0's barrier: GPU 0's parked Next (seq 10)
	// is answered with round 1's first task, beside the push's reply.
	args := testPush(task(0, 3), 1)
	if err := c.write(&wireMsg{method: mPush, seq: 20, body: &args}, false); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		m, err := c.readHeader(true)
		if err != nil || m.err != "" {
			t.Fatalf("reply after round 0's last push = %+v, %v", m, err)
		}
		switch m.seq {
		case 10:
			var d NextReply
			if err := c.readBody(&d); err != nil || d.Task != task(1, 0) {
				t.Fatalf("GPU 0's parked Next = %+v, %v; want %v", d, err, task(1, 0))
			}
		case 20:
			if err := c.readBody(&PushReply{}); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("reply with seq %d after round 0's last push; GPUs 2 and 3 have no work", m.seq)
		}
	}
}

// TestTornNextLeavesConns: a connection closed under a parked Next
// stops being served at once — the Next keeps nothing of it alive until
// its GPU has work — so it leaves the server's connection set without
// a push.
func TestTornNextLeavesConns(t *testing.T) {
	srv, addr, _ := dispatchBatchAt(t, "mem:")
	defer srv.Kill()
	raw, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	rawNexts(t, newWireCodec(raw), 0, 2) // GPU 2 has no work: its Next parks until the run ends
	raw.Close()
	conns := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns)
	}
	deadline := time.Now().Add(time.Second)
	for conns() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d connections served 1 s after the only one closed under a parked Next", conns())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerBadFrames: a request whose body does not decode is answered
// with the decoder's error and the connection serves on; one whose
// header does not decode ends the connection.
func TestServerBadFrames(t *testing.T) {
	srv, addr, _ := dispatchBatchAt(t, "mem:")
	defer srv.Kill()
	raw, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	c := newWireCodec(raw)
	bad := encoder{[]byte{layoutVersion, 0, 0, 0, 0, mHeartbeat}}
	bad.uint(4) // sequence number
	bad.b = append(bad.b, 0xff)
	if _, err := raw.Write(frame(bad.b)); err != nil {
		t.Fatal(err)
	}
	m, err := c.readHeader(true)
	if err != nil || m.seq != 4 || m.err != "bad varint" {
		t.Fatalf("reply to an undecodable Heartbeat = %+v, %v; want seq 4, error \"bad varint\"", m, err)
	}
	if err := c.write(&wireMsg{method: mConfig, seq: 5, body: &ExecutorConfigArgs{GPU: 1}}, false); err != nil {
		t.Fatal(err)
	}
	var cfg ExecutorConfigReply
	if m, err := c.readHeader(true); err != nil || m.seq != 5 || m.err != "" || c.readBody(&cfg) != nil || cfg.CoordEpoch != 1 {
		t.Fatalf("Config after a bad body = %+v, %v, %+v; want served", m, err, cfg)
	}
	if _, err := raw.Write(frame([]byte{layoutVersion, 0, 0, 0, 0, numMethods, 6})); err != nil {
		t.Fatal(err)
	}
	if m, err := c.readHeader(true); !errors.Is(err, io.EOF) {
		t.Fatalf("after a request for method %d the connection read %+v, %v; want io.EOF", numMethods, m, err)
	}
}

// frame fills in the length of a frame built with a zero one.
func frame(b []byte) []byte {
	n := len(b) - frameHeader
	b[1], b[2], b[3], b[4] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
	return b
}

// TestMemConnEnds: a mem: connection's reader drains what the peer
// wrote before it closed and then reads io.EOF; a write to a closed peer
// is io.ErrClosedPipe; and a local Close returns a pending Read.
func TestMemConnEnds(t *testing.T) {
	a, b := memPipe("test")
	if _, err := a.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	got, err := io.ReadAll(b)
	if string(got) != "hello" || err != nil {
		t.Errorf("read after the peer closed = %q, %v; want \"hello\" then io.EOF", got, err)
	}
	if _, err := b.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("write to a closed peer = %v, want io.ErrClosedPipe", err)
	}

	c, d := memPipe("test")
	defer d.Close()
	read := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 8))
		read <- err
	}()
	time.Sleep(5 * time.Millisecond)
	c.Close()
	select {
	case err := <-read:
		if !errors.Is(err, io.ErrClosedPipe) {
			t.Errorf("a Read pending at Close = %v, want io.ErrClosedPipe", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Read still pending 5 s after Close")
	}
}
