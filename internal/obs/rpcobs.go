package obs

import "fmt"

// RPC observation: the shared instrumentation behind the distributed
// control plane's trace-context propagation. Each side of the wire
// (executor = client, coordinator = server) builds one RPCObserver and
// resolves an RPCMethod handle per RPC method; the per-call hot path
// is then
//
//	t := m.Start(clock.Now())        // no-op RPCTimer when observation is off
//	err := ... the call ...
//	m.Observe(t, clock.Now(), Event{GPU: g, Call: id, Epoch: ep}, err)
//
// which emits one rpc.client / rpc.server event and feeds the
// hare_rpc_<side>_{calls,errors}_total families. Nothing on the path
// reads the wall clock. A nil observer (recorder disabled and no
// registry) hands out nil method handles whose Start/Observe are free
// of allocations and locks — BenchmarkObsRPCDisabled pins that
// overhead.

// RPCObserver instruments one side ("client" or "server") of the
// control-plane RPC path.
type RPCObserver struct {
	rec  *Recorder
	reg  *Registry
	typ  Type
	side string
}

// NewRPCObserver returns an observer emitting rpc.<side> events to rec
// and per-method metrics to reg, or nil when both are off.
func NewRPCObserver(rec *Recorder, reg *Registry, side string) *RPCObserver {
	if !rec.Enabled() && reg == nil {
		return nil
	}
	typ := EvRPCClient
	if side == "server" {
		typ = EvRPCServer
	}
	return &RPCObserver{rec: rec, reg: reg, typ: typ, side: side}
}

// RPCMethod is the per-method handle with its counter series
// pre-resolved, so the per-call path does no map lookups.
type RPCMethod struct {
	o      *RPCObserver
	name   string
	calls  *Counter
	errors *Counter
}

// Method resolves (creating on first use) the handle for one RPC
// method. Safe on a nil observer, which returns a nil no-op handle.
func (o *RPCObserver) Method(name string) *RPCMethod {
	if o == nil {
		return nil
	}
	m := &RPCMethod{o: o, name: name}
	if o.reg != nil {
		label := fmt.Sprintf("method=%q", name)
		m.calls = o.reg.Counter(labeled(fmt.Sprintf("hare_rpc_%s_calls_total", o.side), label))
		m.errors = o.reg.Counter(labeled(fmt.Sprintf("hare_rpc_%s_errors_total", o.side), label))
	}
	return m
}

// Active reports whether observing this method can have any effect;
// call sites use it to skip clock reads entirely when observation is
// off.
func (m *RPCMethod) Active() bool { return m != nil }

// RPCTimer carries one call's simulated start time between Start and
// Observe. The zero value is inert: Observe on it does nothing.
type RPCTimer struct {
	sim float64
	on  bool
}

// Start begins timing one call at the given simulated time. On a nil
// handle it returns an inert timer.
func (m *RPCMethod) Start(sim float64) RPCTimer {
	if m == nil {
		return RPCTimer{}
	}
	return RPCTimer{sim: sim, on: true}
}

// Observe completes one call: it bumps the method's counters and —
// when a recorder is attached — emits the rpc.<side> event. The caller fills the event's trace
// context (GPU, Call, Epoch, LSN); Observe stamps Type, Time (the
// simulated start), Dur (simulated duration, simEnd-start) and the
// method name in Note, appending "!" on error.
func (m *RPCMethod) Observe(t RPCTimer, simEnd float64, e Event, err error) {
	if m == nil || !t.on {
		return
	}
	m.calls.Inc()
	if err != nil {
		m.errors.Inc()
	}
	if !m.o.rec.Enabled() {
		return
	}
	e.Type = m.o.typ
	e.Time = t.sim
	e.Dur = simEnd - t.sim
	e.Job = -1
	e.Note = m.name
	if err != nil {
		e.Note += "!"
	}
	m.o.rec.Emit(e)
}
