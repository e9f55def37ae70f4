package rpcnet

import (
	"fmt"
	"net/rpc"
)

// The wire began as net/rpc's codec, and its frames are still what
// net/rpc's client writes through this adapter: FuzzWireDecode scripts
// its seed session with rpc.Client over a wireCodec, so the corpus is
// the same bytes whichever client the package uses, and the server
// answers a net/rpc client as it answers its own.

// DistributedName is the service name net/rpc calls carry.
const DistributedName = "HareTestbedCoordinator"

// methodIndex is the wire index of a "Service.Method" name.
func methodIndex(name string) (int, error) {
	for m, method := range wireMethods {
		if DistributedName+"."+method == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("rpcnet: %q has no wire layout", name)
}

func (c *wireCodec) WriteRequest(r *rpc.Request, body any) error {
	m, err := methodIndex(r.ServiceMethod)
	if err != nil {
		return err
	}
	return c.write(&wireMsg{method: m, seq: r.Seq, body: body}, false)
}

func (c *wireCodec) ReadResponseHeader(r *rpc.Response) error {
	m, err := c.readHeader(true)
	if err != nil {
		return err
	}
	r.ServiceMethod, r.Seq, r.Error = DistributedName+"."+wireMethods[m.method], m.seq, m.err
	return nil
}

// ReadResponseBody decodes a reply; net/rpc passes nil to discard one.
func (c *wireCodec) ReadResponseBody(body any) error {
	if body == nil {
		return nil
	}
	return c.readBody(body)
}

func (c *wireCodec) Close() error { return c.conn.Close() }
