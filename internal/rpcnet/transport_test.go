package rpcnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"syscall"
	"testing"
	"time"
)

// TestMemListenerNames: "mem:" listens under a fresh name, a name in
// use is refused, and a closed listener releases its name, so a second
// listener takes it over while dials to the first are refused.
func TestMemListenerNames(t *testing.T) {
	a, err := listen("mem:")
	if err != nil {
		t.Fatal(err)
	}
	b, err := listen("mem:")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	addr := a.Addr().String()
	if addr == b.Addr().String() || addr == "mem:" {
		t.Fatalf("fresh listeners got names %q and %q", addr, b.Addr())
	}
	if _, err := listen(addr); !errors.Is(err, syscall.EADDRINUSE) {
		t.Fatalf("listen on the live %s = %v, want address in use", addr, err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err == nil {
		t.Error("a second Close succeeded")
	}
	if _, err := dial(addr); !errors.Is(err, syscall.ECONNREFUSED) || !isSessionRetryable(err) {
		t.Fatalf("dial of the closed %s = %v, want a retryable refusal", addr, err)
	}
	again, err := listen(addr)
	if err != nil {
		t.Fatalf("listen on the released %s: %v", addr, err)
	}
	defer again.Close()
	accepted := make(chan error, 1)
	go func() {
		conn, err := again.Accept()
		if err == nil {
			conn.Close()
		}
		accepted <- err
	}()
	conn, err := dial(addr)
	if err != nil {
		t.Fatalf("dial of the re-listened %s: %v", addr, err)
	}
	conn.Close()
	if err := <-accepted; err != nil {
		t.Fatal(err)
	}
}

// TestMemDialRacesClose: a dial waiting for a listener that never
// accepts is refused when the listener closes, and an Accept waiting
// on it returns, so neither side deadlocks.
func TestMemDialRacesClose(t *testing.T) {
	lis, err := listen("mem:")
	if err != nil {
		t.Fatal(err)
	}
	dialed := make(chan error, 1)
	go func() {
		conn, err := dial(lis.Addr().String())
		if err == nil {
			conn.Close()
		}
		dialed <- err
	}()
	time.Sleep(5 * time.Millisecond) // the dialer is waiting on the listener
	if err := lis.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-dialed:
		if !errors.Is(err, syscall.ECONNREFUSED) {
			t.Fatalf("dial racing Close = %v, want a refusal", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dial still waiting 5 s after Close")
	}
	if _, err := lis.Accept(); err == nil {
		t.Fatal("Accept on a closed listener succeeded")
	}
}

// TestMemKillSeversPipes: Kill severs the in-memory connections it
// accepted. Every call pending on one — a Next waiting on the round
// barrier and two waiting for work that never comes — and a call after
// the kill fail with errors a fresh session retries, a dial of the dead
// name is refused, and every goroutine of the coordinator and the
// connection returns.
func TestMemKillSeversPipes(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, addr, _ := dispatchBatchAt(t, "mem:")
	conn, err := dialRPCSeeded(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	call := func(m int, args, reply any) {
		t.Helper()
		if err := conn.call(m, args, reply); err != nil {
			t.Fatalf("%s %+v: %v", wireMethods[m], args, err)
		}
	}
	// GPU 0 runs round 0's three tasks; its Next then blocks on GPU 1's.
	for g := range 2 {
		call(mConfig, &ExecutorConfigArgs{GPU: g}, &ExecutorConfigReply{})
	}
	call(mNext, &NextArgs{GPU: 0, Epoch: 1}, &NextReply{})
	for i := range 3 {
		args := testPush(task(0, i), 0)
		call(mPush, &args, &PushReply{})
	}
	var pending []<-chan error
	for _, g := range []int{0, 2, 3} {
		pending = append(pending, goCall(conn, mNext, &NextArgs{GPU: g, Epoch: 1}, &NextReply{}))
	}
	time.Sleep(20 * time.Millisecond)
	if err := srv.Kill(); err != nil {
		t.Fatal(err)
	}
	for i, done := range pending {
		select {
		case err := <-done:
			if !isSessionRetryable(err) {
				t.Errorf("pending Next %d ended with %v, which a session does not retry", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("pending Next %d still blocked 5 s after Kill", i)
		}
	}
	if err := conn.call(mHeartbeat, &HeartbeatArgs{GPU: 0, Epoch: 1}, &struct{}{}); !isSessionRetryable(err) {
		t.Errorf("a call after Kill = %v, which a session does not retry", err)
	}
	conn.Close()
	if _, err := dial(addr); !errors.Is(err, syscall.ECONNREFUSED) {
		t.Errorf("dial of the killed %s = %v, want a refusal", addr, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines 5 s after Kill, %d before the coordinator\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSessionRetryablePipeErrors: the errors a torn in-memory
// connection surfaces are ones a fresh session retries, as a torn TCP
// connection's are; coordinator verdicts and local failures are not.
func TestSessionRetryablePipeErrors(t *testing.T) {
	for _, c := range []struct {
		err  error
		want bool
	}{
		{io.EOF, true},
		{io.ErrUnexpectedEOF, true},
		{io.ErrClosedPipe, true},
		{fmt.Errorf("rpcnet: fetch config: %w", io.ErrClosedPipe), true},
		{net.ErrClosed, true},
		{os.ErrDeadlineExceeded, true},
		{serverError("rpcnet: coordinator down"), true},
		{nil, false},
		{errors.New("testbed: gradient with 3 params for dim 32"), false},
		{serverError("rpcnet: GPU 2 is fenced"), false},
	} {
		if got := isSessionRetryable(c.err); got != c.want {
			t.Errorf("isSessionRetryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
