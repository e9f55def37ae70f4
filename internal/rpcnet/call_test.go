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
