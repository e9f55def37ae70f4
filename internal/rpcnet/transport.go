package rpcnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The transport: a coordinator address is either host:port, served on
// TCP, or mem:name, served in memory to executors in the same process.
// An in-memory connection is a pair of byte queues, one each way, so
// the coordinator and its in-process fleet talk through the same codec,
// accept loop and Kill path as a remote fleet, without sockets. A write
// appends to its queue and returns at once, and a read waits only for
// bytes; neither takes a deadline. The names live in a
// process-local registry: "mem:" alone listens under a fresh name (as
// port 0 does on TCP), a closed listener releases its name so a
// recovered coordinator can listen under it again, and dialing a name
// nobody listens on is refused.

// memPrefix marks an in-memory address.
const memPrefix = "mem:"

// listen opens the listener for addr's form.
func listen(addr string) (net.Listener, error) {
	if name, ok := strings.CutPrefix(addr, memPrefix); ok {
		return listenMem(name)
	}
	return net.Listen("tcp", addr)
}

// dial opens one connection to addr, bounding a TCP attempt by
// DialTimeout; an in-memory dial waits only for the accept loop.
func dial(addr string) (net.Conn, error) {
	if name, ok := strings.CutPrefix(addr, memPrefix); ok {
		return dialMem(name)
	}
	return net.DialTimeout("tcp", addr, DialTimeout)
}

// Module code calls the methods below only through these interfaces;
// the dead-surface census reads the assertions as that contract.
var (
	_ net.Listener = (*memListener)(nil)
	_ net.Addr     = memAddr("")
	_ net.Conn     = (*memConn)(nil)
)

// memAddr is an in-memory listener's address.
type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return memPrefix + string(a) }

// memNames is the registry of listening names; next numbers the fresh
// ones.
var memNames = struct {
	sync.Mutex
	byName map[string]*memListener
	next   uint64
}{byName: make(map[string]*memListener)}

// memListener hands each dialer's server end of a connection to Accept.
type memListener struct {
	name    memAddr
	conns   chan net.Conn
	closed  chan struct{}
	closing sync.Once
}

func listenMem(name string) (net.Listener, error) {
	memNames.Lock()
	defer memNames.Unlock()
	if name == "" {
		for name == "" || memNames.byName[name] != nil {
			memNames.next++
			name = strconv.FormatUint(memNames.next, 10)
		}
	} else if memNames.byName[name] != nil {
		return nil, &net.OpError{Op: "listen", Net: "mem", Addr: memAddr(name), Err: syscall.EADDRINUSE}
	}
	l := &memListener{name: memAddr(name), conns: make(chan net.Conn), closed: make(chan struct{})}
	memNames.byName[name] = l
	return l, nil
}

func dialMem(name string) (net.Conn, error) {
	memNames.Lock()
	l := memNames.byName[name]
	memNames.Unlock()
	if l != nil {
		client, server := memPipe(l.name)
		select {
		case l.conns <- server:
			return client, nil
		case <-l.closed:
			client.Close()
			server.Close()
		}
	}
	return nil, &net.OpError{Op: "dial", Net: "mem", Addr: memAddr(name), Err: syscall.ECONNREFUSED}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case conn := <-l.conns:
		return conn, nil
	case <-l.closed:
		return nil, &net.OpError{Op: "accept", Net: "mem", Addr: l.name, Err: net.ErrClosed}
	}
}

// Close releases the name and refuses dials still waiting on the
// listener. Connections it already accepted stay open.
func (l *memListener) Close() error {
	first := false
	l.closing.Do(func() {
		memNames.Lock()
		delete(memNames.byName, string(l.name))
		memNames.Unlock()
		close(l.closed)
		first = true
	})
	if !first {
		return &net.OpError{Op: "close", Net: "mem", Addr: l.name, Err: net.ErrClosed}
	}
	return nil
}

func (l *memListener) Addr() net.Addr { return l.name }

// memQueue is one direction of an in-memory connection. Its buffer is
// reused once the reader drains it, so a message costs no allocation.
// It has one reader, the connection's loop or the client's reader.
type memQueue struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	rdone bool          // the reading end closed
	wdone bool          // the writing end closed
	ready chan struct{} // holds a token once bytes arrive or an end closes
}

func newMemQueue() *memQueue { return &memQueue{ready: make(chan struct{}, 1)} }

// read copies what is queued into p, waiting for bytes. Once the
// writer has closed, it drains the queue and then returns io.EOF; once
// the reader has, io.ErrClosedPipe.
func (q *memQueue) read(p []byte) (int, error) {
	q.mu.Lock()
	for !q.rdone && q.buf.Len() == 0 && !q.wdone {
		q.mu.Unlock()
		<-q.ready
		q.mu.Lock()
	}
	defer q.mu.Unlock()
	switch {
	case q.rdone:
		return 0, io.ErrClosedPipe
	case q.buf.Len() > 0:
		return q.buf.Read(p)
	}
	return 0, io.EOF
}

// wake leaves the reader a token, unless one is waiting already.
func (q *memQueue) wake() {
	select {
	case q.ready <- struct{}{}:
	default:
	}
}

// write queues p; either end having closed makes it io.ErrClosedPipe.
func (q *memQueue) write(p []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.rdone || q.wdone {
		return 0, io.ErrClosedPipe
	}
	q.wake()
	return q.buf.Write(p)
}

// close marks the reading or the writing end closed and wakes the
// reader.
func (q *memQueue) close(reader bool) {
	q.mu.Lock()
	if reader {
		q.rdone = true
	} else {
		q.wdone = true
	}
	q.wake()
	q.mu.Unlock()
}

// memConn is one end of an in-memory connection: it reads one queue and
// writes the other.
type memConn struct {
	in, out *memQueue
	addr    memAddr
}

// memPipe returns the two ends of a connection to the listener at addr.
func memPipe(addr memAddr) (client, server *memConn) {
	up, down := newMemQueue(), newMemQueue()
	return &memConn{in: down, out: up, addr: addr}, &memConn{in: up, out: down, addr: addr}
}

func (c *memConn) Read(p []byte) (int, error)  { return c.in.read(p) }
func (c *memConn) Write(p []byte) (int, error) { return c.out.write(p) }

// Close ends both directions at this end: a pending Read returns, and
// the peer drains what was written before reading io.EOF.
func (c *memConn) Close() error {
	c.in.close(true)
	c.out.close(false)
	return nil
}

func (c *memConn) LocalAddr() net.Addr  { return c.addr }
func (c *memConn) RemoteAddr() net.Addr { return c.addr }

// errNoDeadline refuses a deadline on an in-memory connection.
var errNoDeadline = &net.OpError{Op: "set deadline", Net: "mem", Err: errors.ErrUnsupported}

func (c *memConn) SetDeadline(time.Time) error      { return errNoDeadline }
func (c *memConn) SetReadDeadline(time.Time) error  { return errNoDeadline }
func (c *memConn) SetWriteDeadline(time.Time) error { return errNoDeadline }
