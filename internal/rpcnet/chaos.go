package rpcnet

import (
	"errors"
	"net/rpc"
	"reflect"
	"sync"
	"time"

	"hare/internal/faults"
	"hare/internal/obs"
	"hare/internal/stats"
	"hare/internal/testbed"
)

// Network chaos injection (faults.NetChaos, the netdrop=/netdelay=/
// partition= grammar). Faults are injected at the RPC-call boundary —
// below it the stdlib gob stream is stateful, so corrupting raw bytes
// would wedge the connection rather than model message loss:
//
//   - drop-request: the call never reaches the coordinator;
//   - drop-reply: the call executes but its reply is lost — this is
//     the half that exercises Push/Next/Report idempotency, because
//     the executor retries an operation the coordinator already
//     performed;
//   - duplicate: the call is transparently issued twice;
//   - delay/reorder: the call is holdable for a bounded time, letting
//     concurrent calls (heartbeats vs pushes) overtake it;
//   - partition: calls from a partitioned GPU fail outright while the
//     simulated clock is inside the partition window.
//
// All draws come from one seeded stream per executor, so a failing
// schedule is reproducible from (spec, seed) alone.

// Injected-fault sentinels. They surface as *rpc* errors on the
// executor side: drops are retried at the call level, partitions at
// the session level (the executor waits the window out).
var (
	errInjectedDrop      = errors.New("rpcnet: injected message drop")
	errInjectedPartition = errors.New("rpcnet: injected network partition")
)

// netChaos wraps RPC calls of one executor with fault injection. A nil
// *netChaos is a transparent pass-through.
type netChaos struct {
	spec  *faults.NetChaos
	gpu   int
	parts []faults.Partition // this GPU's windows, ordered by At
	rec   *obs.Recorder

	cDrops, cDups *obs.Counter

	mu    sync.Mutex
	rng   *stats.RNG
	clock *testbed.Clock // set after the Config handshake
}

// newNetChaos builds the injector, or nil when the spec injects
// nothing. The stream is seeded per GPU so executors draw
// independently but deterministically.
func newNetChaos(spec *faults.NetChaos, seed int64, gpu int, rec *obs.Recorder, reg *obs.Registry) *netChaos {
	if spec.Empty() {
		return nil
	}
	ch := &netChaos{
		spec:   spec,
		gpu:    gpu,
		rec:    rec,
		rng:    stats.New(gpuSeed(seed, gpu)),
		cDrops: reg.Counter("hare_net_drops_total"),
		cDups:  reg.Counter("hare_net_dups_total"),
	}
	for _, p := range spec.SortedPartitions() {
		if p.GPU == gpu {
			ch.parts = append(ch.parts, p)
		}
	}
	return ch
}

// setClock arms partition windows once the executor learns the shared
// clock from its Config handshake.
func (ch *netChaos) setClock(c *testbed.Clock) {
	if ch == nil {
		return
	}
	ch.mu.Lock()
	ch.clock = c
	ch.mu.Unlock()
}

// partitionRemaining returns the wall time until the partition window
// the executor is inside ends, or 0 when it is inside none (or has not
// handshaken yet). Calls fail while it is positive, and the session
// loop waits it out instead of burning reconnect attempts.
func (ch *netChaos) partitionRemaining() time.Duration {
	if ch == nil {
		return 0
	}
	ch.mu.Lock()
	clock := ch.clock
	ch.mu.Unlock()
	if clock == nil {
		return 0
	}
	simNow := clock.Now()
	for _, p := range ch.parts {
		if end := p.At + p.Dur.Seconds()/clock.Scale(); simNow < end {
			if simNow < p.At {
				return 0 // the next window has not opened yet
			}
			return clock.Until(end)
		}
	}
	return 0
}

// draw samples one call's fate under the mutex (the heartbeat
// goroutine shares the stream with the pull loop).
func (ch *netChaos) draw() (dropReq, dropReply, dup bool, delay, hold time.Duration) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if ch.spec.Drop > 0 && ch.rng.Float64() < ch.spec.Drop {
		// Split drops evenly between the request and the reply leg;
		// the reply leg is the one that forces duplicate deliveries.
		if ch.rng.Float64() < 0.5 {
			dropReq = true
		} else {
			dropReply = true
		}
	}
	if ch.spec.Dup > 0 && ch.rng.Float64() < ch.spec.Dup {
		dup = true
	}
	if ch.spec.Reorder > 0 && ch.rng.Float64() < ch.spec.Reorder {
		hold = time.Duration(ch.rng.Uniform(0, float64(2*time.Millisecond)))
	}
	if ch.spec.DelayMax > 0 {
		delay = time.Duration(ch.rng.Uniform(float64(ch.spec.DelayMin), float64(ch.spec.DelayMax)))
	}
	return
}

// emit records one injected fault as a net.fault event.
func (ch *netChaos) emit(kind string) {
	if !ch.rec.Enabled() {
		return
	}
	ch.mu.Lock()
	clock := ch.clock
	ch.mu.Unlock()
	t := 0.0
	if clock != nil {
		t = clock.Now()
	}
	ch.rec.Emit(obs.Event{Type: obs.EvNetFault, Time: t, GPU: ch.gpu, Job: -1, Note: kind})
}

// do performs one RPC through the injector. A nil receiver is a plain
// call.
func (ch *netChaos) do(conn *rpc.Client, method string, args, reply any) error {
	if ch == nil {
		return conn.Call(method, args, reply)
	}
	if ch.partitionRemaining() > 0 {
		ch.emit("partition")
		return errInjectedPartition
	}
	dropReq, dropReply, dup, delay, hold := ch.draw()
	if dropReq {
		ch.cDrops.Inc()
		ch.emit("drop-request")
		return errInjectedDrop
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	err := conn.Call(method, args, reply)
	if dup && err == nil {
		// Deliver the same message again, discarding the second
		// reply — the coordinator must answer both idempotently.
		ch.cDups.Inc()
		ch.emit("duplicate")
		shadow := reflect.New(reflect.TypeOf(reply).Elem()).Interface()
		_ = conn.Call(method, args, shadow)
	}
	if hold > 0 {
		// Hold the reply briefly so concurrent calls overtake it.
		ch.emit("reorder")
		time.Sleep(hold)
	}
	if dropReply {
		ch.cDrops.Inc()
		ch.emit("drop-reply")
		return errInjectedDrop
	}
	return err
}
