// Package rpcnet is the control plane of the testbed: the substitute
// for the gRPC channel the paper's prototype uses between the central
// scheduler and the executors. There is one channel: the pull-based
// coordinator (ServeDistributed) hosts the parameter servers and every
// task queue, and executors (RunExecutorOpts) dial in, handshake, and
// pull, run and push one task at a time over one connection: TCP for
// an executor in another process, an in-memory connection for a fleet
// in the coordinator's own process (transport.go).
//
// The state behind the channel is testbed.State, and every transition
// is its Apply — the same state and function the in-process engine
// (testbed.Run) commits through, and every dispatch is its Next, which
// sends a GPU's in-flight task again until its push arrives. What this
// package adds is what a network and a crash need: handshakes and
// epochs, leases and fencing (computeFenceLocked, re-planned with
// faults.Replan), the write-ahead journal and its snapshots, recovery,
// and the binary layout of records, snapshots and messages (codec.go,
// wire.go).
//
// The protocol has five methods. Config is the handshake (and the
// re-handshake after a torn connection or a coordinator recovery),
// Heartbeat renews the GPU's lease, Report closes an executor out, and
// a task costs one round trip when work is ready: Push delivers the
// gradient and the task's measured timings, and its reply carries the
// GPU's next dispatch — the task together with the previous round's
// realized end and the job's current parameters, so neither the barrier
// nor the checkpoint is a call of its own. Next, which is answered once
// a task is eligible, is called only when that reply carried none. The
// messages travel in the journal's binary layout (wire.go), not gob,
// and the call layer over them is this package's own (call.go): one
// goroutine serves a connection, and a waiting Next is state, not a
// goroutine.
package rpcnet

import (
	"fmt"
	"net"
	"sync"
	"time"

	"hare/internal/faults"
	"hare/internal/stats"
	"hare/internal/testbed"
)

// Dial behavior: connection attempts time out instead of hanging on a
// dead listener, and transient refusals are absorbed by bounded
// exponential backoff (DialAttempts tries, DialBackoff doubling each
// time, jittered so a fleet of executors restarting after a
// coordinator recovery doesn't reconnect in lockstep). A permanently
// dead coordinator therefore surfaces as an error after a few seconds
// rather than an executor process stuck forever.
const (
	// DialTimeout bounds one TCP connection attempt.
	DialTimeout = 2 * time.Second
	// DialAttempts is the maximum number of connection attempts.
	DialAttempts = 5
	// DialBackoff is the initial retry delay; it doubles per attempt.
	DialBackoff = 100 * time.Millisecond
)

// dialRPCSeeded connects to a host:port or mem: address with bounded
// exponential backoff between attempts. The jitter is deterministic:
// each backoff step is scaled by a uniform factor in [0.5, 1.5) drawn
// from a seeded stream, so runs stay reproducible while concurrent
// dialers with distinct seeds desynchronize. A dial that succeeds at
// once draws nothing, so it allocates no stream.
func dialRPCSeeded(addr string, seed int64) (*client, error) {
	rng := lazyRNG{seed: seed}
	var lastErr error
	backoff := DialBackoff
	for attempt := 0; attempt < DialAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(float64(backoff) * rng.uniform(0.5, 1.5)))
			backoff *= 2
		}
		conn, err := dial(addr)
		if err == nil {
			return newClient(conn), nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("rpcnet: dial %s: %d attempts failed: %w", addr, DialAttempts, lastErr)
}

// PushArgs carries one gradient push: the task's full measured report.
// Epoch is the coordinator incarnation the executor handshook with.
// Call is the executor's trace-context call id: stamped once per logical
// call (retries reuse it), echoed in the rpc.client and rpc.server
// events so cross-process merges can pair both ends of the wire. Zero
// means tracing is off.
type PushArgs struct {
	Report testbed.PushReport
	Epoch  uint64
	Call   uint64
}

// PushReply returns the task's realized completion time and, when the
// pushing GPU had work ready once the push committed, its next dispatch:
// the reply Next would have given — a duplicate push is sent the same
// one. Next is nil when nothing was eligible yet; the executor then
// calls Next, which is answered once a task is eligible.
type PushReply struct {
	Completion float64
	Next       *NextReply
}

// lazyRNG is stats.New(seed)'s stream, with the source allocated at
// the first draw: most dials and sessions never back off.
type lazyRNG struct {
	seed int64
	rng  *stats.RNG
}

func (l *lazyRNG) uniform(lo, hi float64) float64 {
	if l.rng == nil {
		l.rng = stats.New(l.seed)
	}
	return l.rng.Uniform(lo, hi)
}

// Server hosts the coordinator's RPC endpoint on a TCP or in-memory
// listener and tracks open connections so Kill can sever them,
// simulating a coordinator process death. accepting counts the accept
// loop, serving the connections' loops (call.go).
type Server struct {
	lis       net.Listener
	mu        sync.Mutex
	accepting sync.WaitGroup
	serving   sync.WaitGroup
	co        *coordinator
	conns     map[net.Conn]struct{}
}

// track registers an accepted connection and counts its loop; false
// means Kill has run and the connection must be closed unserved.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conns == nil {
		return false
	}
	s.conns[conn] = struct{}{}
	s.serving.Add(1)
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// Kill simulates a coordinator crash: it aborts every in-flight and
// future call with ErrCoordinatorDown, severs all open connections,
// stops the lease monitor, and closes the listener — leaving whatever
// the WAL and snapshot captured as the only surviving state, exactly
// like a killed process. The bound port or mem: name is released so a
// recovered coordinator can re-listen on the same address. Kill returns
// once the accept loop and every connection's loop have.
func (s *Server) Kill() error {
	s.co.kill()
	s.mu.Lock()
	err := s.lis.Close()
	//lint:ordered every tracked connection is severed; close order is immaterial
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.conns = nil
	s.mu.Unlock()
	s.accepting.Wait()
	s.serving.Wait()
	return err
}

// FleetSize reports the coordinator's GPU count — after a WAL recovery
// this is how the host process learns how many executors to respawn,
// since the fleet shape lives in the snapshot rather than on the
// command line.
func (s *Server) FleetSize() int { return s.co.in.NumGPUs }

// FaultPlan returns the coordinator's fault plan. After a recovery the
// plan was rebuilt from the snapshot's fault spec, so respawned
// executors can inherit the same network chaos the pre-crash ones ran
// under.
func (s *Server) FaultPlan() *faults.Plan { return s.co.opts.Faults }

// Close stops accepting connections. In-flight calls finish on their
// own connections, which are served until their executors hang up.
// Like Kill, it waits for the accept loop after unlocking s.mu, which
// the loop takes to track a connection accepted as Close starts.
func (s *Server) Close() error {
	s.mu.Lock()
	err := s.lis.Close()
	s.mu.Unlock()
	s.accepting.Wait()
	return err
}
