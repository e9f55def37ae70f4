package rpcnet

import (
	"net"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// The transport: a coordinator address is either host:port, served on
// TCP, or mem:name, served in memory to executors in the same process.
// An in-memory connection is one net.Pipe, so the coordinator and its
// in-process fleet talk through the same codec, accept loop and Kill
// path as a remote fleet, without sockets. The names live in a
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

// memListener hands each dialer's server end of a pipe to Accept.
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
		client, server := net.Pipe()
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
