package fiddle

import (
	"fmt"
	"sync"
	"time"

	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/udprpc"
	"github.com/darklab/mercury/internal/units"
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

// Convenience wrappers mirroring the solver's fiddle surface.

// PinInlet pins a machine's inlet temperature.
func (c *Client) PinInlet(machine string, t units.Celsius) error {
	return c.Apply(&wire.FiddleOp{Op: wire.OpPinInlet, Strings: []string{machine}, Floats: []float64{float64(t)}})
}

// UnpinInlet releases a machine's inlet pin.
func (c *Client) UnpinInlet(machine string) error {
	return c.Apply(&wire.FiddleOp{Op: wire.OpUnpinInlet, Strings: []string{machine}})
}

// SetSourceTemperature changes a room source's supply temperature.
func (c *Client) SetSourceTemperature(source string, t units.Celsius) error {
	return c.Apply(&wire.FiddleOp{Op: wire.OpSetSourceTemp, Strings: []string{source}, Floats: []float64{float64(t)}})
}

// SetMachinePower powers a machine on or off.
func (c *Client) SetMachinePower(machine string, on bool) error {
	v := 0.0
	if on {
		v = 1
	}
	return c.Apply(&wire.FiddleOp{Op: wire.OpSetMachinePower, Strings: []string{machine}, Floats: []float64{v}})
}
