package rpcnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"hare/internal/switching"
)

// The wire: the frames the coordinator's call layer (call.go) reads and
// writes, in the journal's binary layout (codec.go), so every message
// costs one hand-written encoding instead of gob's per-connection type
// exchange. A frame is layoutVersion, the message's length as four
// little-endian bytes, then the message:
//
//   - a request is its method's index (one byte), the call's sequence
//     number and the method's arguments;
//   - a reply is the method's index, the sequence number, the error
//     string and — when that is empty — the method's reply.
//
// A frame whose first byte is not layoutVersion, or whose length is
// above maxFrame, is refused before anything is allocated, and the
// payload's storage grows with the bytes that arrive, not with the
// length a frame claims. Error strings cross unchanged: the executor's
// session loop classifies them by text (isSessionRetryable,
// isFatalRPC). FuzzWireDecode holds the decoder to the journal's rules:
// no panic, bounded allocation, and what it accepts re-encodes to the
// same bytes.

// The coordinator's methods, by their index on the wire.
const (
	mConfig = iota
	mHeartbeat
	mNext
	mPush
	mReport
	numMethods
)

// wireMethods names the methods in wire order, as the rpc.server and
// rpc.client observations label them.
var wireMethods = [numMethods]string{"Config", "Heartbeat", "Next", "Push", "Report"}

// newBody returns a zero body for method m: its arguments, or its reply.
// Heartbeat and Report reply with nothing.
func newBody(m int, reply bool) any {
	switch {
	case !reply && m == mConfig:
		return new(ExecutorConfigArgs)
	case !reply && m == mHeartbeat:
		return new(HeartbeatArgs)
	case !reply && m == mNext:
		return new(NextArgs)
	case !reply && m == mPush:
		return new(PushArgs)
	case !reply:
		return new(ReportArgs)
	case m == mConfig:
		return new(ExecutorConfigReply)
	case m == mNext:
		return new(NextReply)
	case m == mPush:
		return new(PushReply)
	}
	return new(struct{})
}

const (
	// maxFrame caps a message: far above the largest Config reply (its
	// instance is two float64 matrices of jobs × GPUs), far below what a
	// corrupt length could make a reader wait for.
	maxFrame    = 64 << 20
	frameHeader = 5 // layoutVersion and the length
)

// wireMsg is one message: the method's index, the call's sequence
// number, a reply's error, and the body — a pointer to the method's
// arguments or reply, nil after an error reply.
type wireMsg struct {
	method int
	seq    uint64
	err    string
	body   any
}

// appendMsg appends m's frame to b; reply says which of the method's
// types the body is.
func appendMsg(b []byte, m *wireMsg, reply bool) ([]byte, error) {
	e := encoder{append(b, layoutVersion, 0, 0, 0, 0)}
	e.b = append(e.b, byte(m.method))
	e.uint(m.seq)
	if reply {
		e.str(m.err)
	}
	if !reply || m.err == "" {
		if err := putBody(&e, m.body); err != nil {
			return b, err
		}
	}
	n := len(e.b) - len(b) - frameHeader
	if n > maxFrame {
		return b, fmt.Errorf("rpcnet: a %d-byte message exceeds the %d-byte frame cap", n, maxFrame)
	}
	binary.LittleEndian.PutUint32(e.b[len(b)+1:], uint32(n))
	return e.b, nil
}

// header reads a message's method, sequence number and, for a reply, its
// error.
func (d *decoder) header(reply bool) (m wireMsg) {
	if len(d.b) == 0 || int(d.b[0]) >= len(wireMethods) {
		d.fail("no wire method")
		return m
	}
	m.method, d.b = int(d.b[0]), d.b[1:]
	m.seq = d.uint()
	if reply {
		m.err = d.str()
	}
	return m
}

// frameReader reads frames off a stream into one reused buffer.
type frameReader struct {
	r   io.Reader
	hdr [frameHeader]byte
	buf []byte
}

// next returns the next frame's message; it is valid until the next
// call. A stream that ends between frames yields io.EOF, one that ends
// inside a frame io.ErrUnexpectedEOF.
func (f *frameReader) next() ([]byte, error) {
	if _, err := io.ReadFull(f.r, f.hdr[:]); err != nil {
		return nil, err
	}
	if f.hdr[0] != layoutVersion {
		return nil, fmt.Errorf("rpcnet: frame starts with %#x, not wire layout version %#x", f.hdr[0], layoutVersion)
	}
	n := int(binary.LittleEndian.Uint32(f.hdr[1:]))
	if n > maxFrame {
		return nil, fmt.Errorf("rpcnet: a %d-byte frame exceeds the %d-byte cap", n, maxFrame)
	}
	f.buf = f.buf[:0]
	for len(f.buf) < n {
		// Past the buffer's capacity, grow with the bytes that arrived.
		k := min(n, max(cap(f.buf), 2*len(f.buf), 512)) - len(f.buf)
		f.buf = slices.Grow(f.buf, k)
		got, err := io.ReadFull(f.r, f.buf[len(f.buf):len(f.buf)+k])
		f.buf = f.buf[:len(f.buf)+got]
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return f.buf, nil
}

func putNext(e *encoder, r *NextReply) {
	e.task(r.Task)
	e.bool(r.Done)
	e.float(r.RoundEnd)
	e.floats(r.Params)
}

func getNext(d *decoder, r *NextReply) {
	*r = NextReply{Task: d.task(), Done: d.bool(), RoundEnd: d.float(), Params: d.floats()}
}

// putBody writes a method's arguments or reply, given by pointer.
func putBody(e *encoder, body any) error {
	switch b := body.(type) {
	case *ExecutorConfigArgs:
		e.int(b.GPU)
		e.uint(b.Call)
	case *ExecutorConfigReply:
		e.instance(b.Instance)
		e.str(b.GPUTypeName)
		slice(e, b.ModelNames, func(e *encoder, s *string) { e.str(*s) })
		e.int(int(b.Scheme))
		e.bool(b.Speculative)
		e.float(b.TimeScale)
		e.int(int(b.EpochUnixNano))
		e.float(b.FaultRate)
		e.int(int(b.FaultSeed))
		e.float(b.SlowFactor)
		e.float(b.CrashAtSim)
		e.int(int(b.HeartbeatMillis))
		e.uint(b.CoordEpoch)
	case *HeartbeatArgs:
		e.int(b.GPU)
		e.uint(b.Epoch)
		e.uint(b.Call)
	case *NextArgs:
		e.int(b.GPU)
		e.uint(b.Epoch)
		e.uint(b.Call)
	case *NextReply:
		putNext(e, b)
	case *PushArgs:
		putPush(e, &b.Report)
		e.uint(b.Epoch)
		e.uint(b.Call)
	case *PushReply:
		e.float(b.Completion)
		e.bool(b.Next != nil)
		if b.Next != nil {
			putNext(e, b.Next)
		}
	case *ReportArgs:
		e.int(b.GPU)
		e.str(b.Err)
		e.uint(b.Epoch)
		e.uint(b.Call)
	case *struct{}:
	default:
		return fmt.Errorf("rpcnet: %T has no wire layout", body)
	}
	return nil
}

// getBody reads a method's arguments or reply into body, a pointer to
// the type putBody wrote.
func getBody(d *decoder, body any) {
	switch b := body.(type) {
	case *ExecutorConfigArgs:
		*b = ExecutorConfigArgs{GPU: d.int(), Call: d.uint()}
	case *ExecutorConfigReply:
		*b = ExecutorConfigReply{
			Instance: d.instance(), GPUTypeName: d.str(),
			ModelNames: unslice(d, 1, func(d *decoder, s *string) { *s = d.str() }),
			Scheme:     switching.Scheme(d.int()), Speculative: d.bool(),
			TimeScale: d.float(), EpochUnixNano: int64(d.int()),
			FaultRate: d.float(), FaultSeed: int64(d.int()), SlowFactor: d.float(), CrashAtSim: d.float(),
			HeartbeatMillis: int64(d.int()), CoordEpoch: d.uint(),
		}
	case *HeartbeatArgs:
		*b = HeartbeatArgs{GPU: d.int(), Epoch: d.uint(), Call: d.uint()}
	case *NextArgs:
		*b = NextArgs{GPU: d.int(), Epoch: d.uint(), Call: d.uint()}
	case *NextReply:
		getNext(d, b)
	case *PushArgs:
		*b = PushArgs{}
		getPush(d, &b.Report)
		b.Epoch, b.Call = d.uint(), d.uint()
	case *PushReply:
		*b = PushReply{Completion: d.float()}
		if d.bool() {
			b.Next = new(NextReply)
			getNext(d, b.Next)
		}
	case *ReportArgs:
		*b = ReportArgs{GPU: d.int(), Err: d.str(), Epoch: d.uint(), Call: d.uint()}
	case *struct{}:
	default:
		d.fail("%T has no wire layout", body)
	}
}

// wireCodec is one end of a connection. One goroutine reads — the
// server's connection loop, the client's reader — so the read buffers
// need no lock; writes come from several (on the server, the
// connection's loop and whichever handler, or the lease monitor,
// answered a parked Next; a client's callers) and take wmu.
type wireCodec struct {
	conn io.ReadWriteCloser
	in   frameReader
	msg  decoder // the message being read, after its header
	wmu  sync.Mutex
	out  []byte
}

func newWireCodec(conn io.ReadWriteCloser) *wireCodec {
	return &wireCodec{conn: conn, in: frameReader{r: bufio.NewReader(conn)}}
}

// readHeader reads the next message up to its body.
func (c *wireCodec) readHeader(reply bool) (wireMsg, error) {
	p, err := c.in.next()
	if err != nil {
		return wireMsg{}, err
	}
	c.msg = decoder{b: p}
	m := c.msg.header(reply)
	return m, c.msg.err
}

// readBody decodes the body of the message readHeader read into body, a
// pointer to the type the method's request or reply carries.
func (c *wireCodec) readBody(body any) error {
	getBody(&c.msg, body)
	return c.msg.end()
}

// write sends one message.
func (c *wireCodec) write(m *wireMsg, reply bool) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var err error
	if c.out, err = appendMsg(c.out[:0], m, reply); err != nil {
		return err
	}
	_, err = c.conn.Write(c.out)
	return err
}
