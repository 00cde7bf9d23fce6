package fiddle

import (
	"fmt"
	"sync"
	"time"

	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/udprpc"
	"github.com/darklab/mercury/internal/wire"
)

// Client sends fiddle operations to a remote solver daemon over UDP
// and waits for acknowledgement. Concurrent Applies take turns.
type Client struct {
	mu  sync.Mutex // held from request to decoded reply
	rpc *udprpc.Client
}

// Dial connects to the solver daemon at addr. timeout <= 0 and
// retries <= 0 select the transport defaults.
func Dial(addr string, timeout time.Duration, retries int) (*Client, error) {
	return DialClock(addr, timeout, retries, nil)
}

// DialClock is Dial with an explicit clock for the reply timeouts; nil
// means the real clock.
func DialClock(addr string, timeout time.Duration, retries int, clk clock.Clock) (*Client, error) {
	rpc, err := udprpc.DialClock(addr, timeout, retries, clk)
	if err != nil {
		return nil, fmt.Errorf("fiddle: %w", err)
	}
	return &Client{rpc: rpc}, nil
}

// Apply implements Applier over UDP.
func (c *Client) Apply(op *wire.FiddleOp) error {
	req, err := wire.MarshalFiddleOp(op)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	buf, err := c.rpc.Do(req)
	if err != nil {
		return fmt.Errorf("fiddle: %s: %w", wire.OpName(op.Op), err)
	}
	rep, err := wire.UnmarshalFiddleReply(buf)
	if err != nil {
		return fmt.Errorf("fiddle: %s: %w", wire.OpName(op.Op), err)
	}
	if rep.Status != wire.StatusOK {
		return fmt.Errorf("fiddle: %s rejected: %s", wire.OpName(op.Op), rep.Message)
	}
	return nil
}

// Close releases the socket.
func (c *Client) Close() error { return c.rpc.Close() }
