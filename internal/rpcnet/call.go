package rpcnet

import (
	"errors"
	"io"
	"net"
	"sync"
)

// The call layer over the wire's frames (wire.go). The coordinator
// serves each connection on one goroutine, which decodes a request by
// its method index and runs the handler in place — no handler waits on
// another call. A Next with no task ready on its GPU is parked in the
// coordinator's state instead (coordinator.Next), and the commit that
// decides its dispatch answers it, so a Heartbeat on the same connection
// is answered while it waits. An executor's client has one reader
// goroutine that hands each reply to the call waiting on its sequence
// number.

// serverError is an error a handler returned, as its text crossed the
// wire: the session loop classifies it by that text.
type serverError string

func (e serverError) Error() string { return string(e) }

// serveConn answers conn's requests until it fails or closes, then
// forgets the connection's parked Nexts, closes it and drops it from
// the server. A request whose header does not decode ends the
// connection; one whose body does not decode is answered with the
// decoder's error, and the connection keeps serving.
func (s *Server) serveConn(conn net.Conn) {
	defer s.serving.Done()
	c := newWireCodec(conn)
	co := s.co
	for {
		req, err := c.readHeader(false)
		if err != nil {
			break
		}
		var body any
		switch req.method {
		case mConfig:
			var args ExecutorConfigArgs
			var reply ExecutorConfigReply
			if err = c.readBody(&args); err == nil {
				err = co.Config(args, &reply)
			}
			body = &reply
		case mHeartbeat:
			var args HeartbeatArgs
			if err = c.readBody(&args); err == nil {
				err = co.Heartbeat(args)
			}
			body = &struct{}{}
		case mNext:
			var args NextArgs
			if err = c.readBody(&args); err == nil {
				co.Next(c, req, args)
				continue
			}
		case mPush:
			var args PushArgs
			var reply PushReply
			if err = c.readBody(&args); err == nil {
				err = co.Push(args, &reply)
			}
			body = &reply
		case mReport:
			var args ReportArgs
			if err = c.readBody(&args); err == nil {
				err = co.Report(args)
			}
			body = &struct{}{}
		}
		c.answer(req, body, err)
	}
	co.drop(c)
	_ = conn.Close()
	s.untrack(conn)
}

// answer replies to req with body, or with err's text when the handler
// or the request's decoding failed. A reply that cannot be written
// leaves the connection to fail its next read.
func (c *wireCodec) answer(req wireMsg, body any, err error) {
	rep := wireMsg{method: req.method, seq: req.seq, body: body}
	if err != nil {
		rep.err = err.Error()
	}
	_ = c.write(&rep, true)
}

// client is an executor's end of a connection. Calls may come from any
// goroutine; each writes its request and waits for the reader goroutine
// to decode the reply into the call's reply value. Once the connection
// fails or closes, pending and later calls fail with its error.
type client struct {
	codec *wireCodec

	mu      sync.Mutex
	seq     uint64
	pending []*pendingCall
	err     error // why the connection ended; nil while it serves
}

// pendingCall is one call awaiting its reply.
type pendingCall struct {
	seq   uint64
	reply any
	done  chan error
}

func newClient(conn io.ReadWriteCloser) *client {
	c := &client{codec: newWireCodec(conn)}
	go c.read()
	return c
}

// call sends method m's arguments and waits for its reply; both are
// pointers to the method's types. A handler's error comes back as a
// serverError.
func (c *client) call(m int, args, reply any) error {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	pc := &pendingCall{seq: c.seq, reply: reply, done: make(chan error, 1)}
	c.seq++
	c.pending = append(c.pending, pc)
	c.mu.Unlock()

	err := c.codec.write(&wireMsg{method: m, seq: pc.seq, body: args}, false)
	if err == nil || c.take(pc.seq) == nil {
		// Sent, or the reader failed the call before the write did.
		err = <-pc.done
	}
	return err
}

// take removes the pending call with sequence number seq, nil when
// there is none.
func (c *client) take(seq uint64) *pendingCall {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, pc := range c.pending {
		if pc.seq == seq {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return pc
		}
	}
	return nil
}

// read hands replies to their calls until the connection fails, then
// fails every pending and later call. A reply nobody waits for is
// dropped; one whose body does not decode fails its call only.
func (c *client) read() {
	var err error
	for {
		var m wireMsg
		if m, err = c.codec.readHeader(true); err != nil {
			break
		}
		pc := c.take(m.seq)
		switch {
		case pc == nil:
		case m.err != "":
			pc.done <- serverError(m.err)
		default:
			pc.done <- c.codec.readBody(pc.reply)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		if errors.Is(err, io.EOF) && len(c.pending) > 0 {
			err = io.ErrUnexpectedEOF
		}
		c.err = err
	}
	for _, pc := range c.pending {
		pc.done <- c.err
	}
	c.pending = nil
}

// Close closes the connection: pending and later calls fail with
// net.ErrClosed, and the reader returns.
func (c *client) Close() error {
	c.mu.Lock()
	if c.err == nil {
		c.err = net.ErrClosed
	}
	c.mu.Unlock()
	return c.codec.conn.Close()
}
