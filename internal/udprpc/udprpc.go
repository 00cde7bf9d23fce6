// Package udprpc provides the small request/reply discipline Mercury's
// UDP clients share: send a datagram, wait for one reply with a
// timeout, retry a bounded number of times.
//
// The reply is read on the caller's goroutine, straight from the
// connected socket into a buffer the client owns; no goroutine exists
// to move datagrams. Timeouts are measured on an injectable clock
// (internal/clock): on the Real clock an attempt is a socket read
// deadline, while on a Virtual clock the timeout is a clock waiter
// that expires the read when the clock reaches it, so warp-speed
// emulations drive the retry schedule deterministically.
package udprpc

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"syscall"
	"time"

	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/clock"
)

// Defaults used when a Client field is zero.
const (
	DefaultTimeout = 250 * time.Millisecond
	DefaultRetries = 3
)

// ErrTimeout is the per-attempt failure recorded when no reply arrives
// within the timeout; Do wraps it in its final error.
var ErrTimeout = errors.New("reply timeout")

// virtualBackstop bounds, in real time, one attempt timed on a
// Virtual clock. A lockstep harness is the only goroutine advancing
// its clock, so while it waits for a reply the virtual timeout cannot
// fire; without the backstop a lost datagram would block it forever.
const virtualBackstop = 30 * time.Second

// drainWindow is how long Do listens for stale replies after an
// attempt has timed out; queued datagrams are read at once.
const drainWindow = time.Millisecond

// pastDeadline expires a socket read immediately.
var pastDeadline = time.Unix(1, 0)

// Client is a connected UDP endpoint with retry behaviour. The zero
// value is unusable; use Dial or DialClock.
type Client struct {
	conn    *net.UDPConn
	timeout time.Duration
	retries int
	clk     clock.Clock
	onReal  bool // clk is clock.Real: an attempt is a socket deadline
	tracer  *causal.Tracer

	mu    sync.Mutex // serializes Do, which owns the fields below
	buf   []byte     // the last reply; Do's result aliases it
	stale bool       // an attempt failed, so a late reply may be queued

	// Virtual-clock attempts: expire is the clock callback, bound once.
	// It marks the attempt expired, cuts the read short, and leaves one
	// token in fired, which Do takes whenever it fails to stop the
	// callback, so no callback outlives its attempt and expired is
	// settled when Do reads it.
	expire   func()
	expired  bool
	fired    chan struct{}
	backstop time.Duration

	closeOnce sync.Once
}

// SetTracer attaches a causal tracer: DoCtx exchanges performed under
// a trace context then record an rpc span covering the send-to-reply
// interval. Must be called before the client is used.
func (c *Client) SetTracer(t *causal.Tracer) { c.tracer = t }

// Dial connects to a UDP address on the real clock. timeout <= 0 and
// retries <= 0 select the defaults.
func Dial(addr string, timeout time.Duration, retries int) (*Client, error) {
	return DialClock(addr, timeout, retries, clock.Real{})
}

// DialClock is Dial with an explicit clock; reply timeouts elapse in
// that clock's time.
func DialClock(addr string, timeout time.Duration, retries int, clk clock.Clock) (*Client, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("udprpc: %w", err)
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, fmt.Errorf("udprpc: %w", err)
	}
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	if retries <= 0 {
		retries = DefaultRetries
	}
	if clk == nil {
		clk = clock.Real{}
	}
	_, onReal := clk.(clock.Real)
	c := &Client{
		conn:     conn,
		timeout:  timeout,
		retries:  retries,
		clk:      clk,
		onReal:   onReal,
		buf:      make([]byte, 2048),
		fired:    make(chan struct{}, 1),
		backstop: virtualBackstop,
	}
	c.expire = func() {
		c.expired = true
		_ = c.conn.SetReadDeadline(pastDeadline)
		c.fired <- struct{}{}
	}
	return c, nil
}

// DoCtx is Do under a trace context: when the client has a tracer and
// the context is live, the exchange is recorded as an rpc span (child
// of the context's span) whose Value counts the attempts used.
func (c *Client) DoCtx(tc causal.Context, req []byte) ([]byte, error) {
	if c.tracer == nil || tc.Zero() {
		return c.Do(req)
	}
	begin := c.tracer.Now()
	rep, attempts, err := c.do(req)
	c.tracer.Emit(causal.Span{
		Trace:  tc.Trace,
		Parent: tc.Span,
		Kind:   causal.KindRPC,
		Begin:  begin,
		End:    c.tracer.Now(),
		Value:  float64(attempts),
	})
	return rep, err
}

// Do sends req and returns the first reply datagram, retrying when no
// reply arrives within the client's timeout on its clock. The returned
// slice is the client's buffer: it is valid until the next call.
func (c *Client) Do(req []byte) ([]byte, error) {
	rep, _, err := c.do(req)
	return rep, err
}

func (c *Client) do(req []byte) ([]byte, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stale {
		// A reply to an abandoned earlier request must not be taken
		// for the answer to this one.
		c.drain()
	}
	for attempt := 1; attempt <= c.retries; attempt++ {
		if _, err := c.conn.Write(req); err != nil {
			return nil, attempt, fmt.Errorf("udprpc: send: %w", err)
		}
		n, err := c.await()
		if err == nil {
			return c.buf[:n], attempt, nil
		}
		c.stale = true // the reply may yet come, after the call gave up on it
		switch {
		case errors.Is(err, net.ErrClosed):
			return nil, attempt, fmt.Errorf("udprpc: client closed")
		case !errors.Is(err, ErrTimeout):
			return nil, attempt, fmt.Errorf("udprpc: %w", err)
		}
	}
	return nil, c.retries, fmt.Errorf("udprpc: no reply after %d attempts: %w", c.retries, ErrTimeout)
}

// await reads one attempt's reply into c.buf, returning ErrTimeout
// when the attempt's time runs out on the client's clock.
func (c *Client) await() (int, error) {
	if c.onReal {
		if err := c.conn.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
			return 0, err
		}
		return c.read()
	}
	if err := c.conn.SetReadDeadline(time.Now().Add(c.backstop)); err != nil {
		return 0, err
	}
	c.expired = false
	stop := c.clk.AfterFunc(c.timeout, c.expire)
	n, err := c.read()
	if !stop() {
		<-c.fired // the callback has run; c.expired is settled
	}
	if errors.Is(err, ErrTimeout) && !c.expired {
		return 0, fmt.Errorf("no reply within %v of real time while the clock stood short of the %v timeout", c.backstop, c.timeout)
	}
	return n, err
}

// read returns the next datagram under the current read deadline. A
// refused exchange (an ICMP port-unreachable surfacing on the
// connected socket) is a lost datagram: the attempt keeps waiting.
func (c *Client) read() (int, error) {
	for {
		n, err := c.conn.Read(c.buf)
		switch {
		case err == nil:
			return n, nil
		case errors.Is(err, os.ErrDeadlineExceeded):
			return 0, ErrTimeout
		case !errors.Is(err, syscall.ECONNREFUSED):
			return 0, err
		}
	}
}

// drain discards the replies queued on the socket.
func (c *Client) drain() {
	if c.conn.SetReadDeadline(time.Now().Add(drainWindow)) != nil {
		return
	}
	for {
		if _, err := c.read(); err != nil {
			break
		}
	}
	c.stale = false
}

// Send transmits a datagram without expecting a reply (monitord's
// fire-and-forget utilization updates). Nothing reads a send-only
// client's socket, so a refusal of an earlier datagram (the receiver
// has gone away) fails the next Send.
func (c *Client) Send(req []byte) error {
	if _, err := c.conn.Write(req); err != nil {
		return fmt.Errorf("udprpc: send: %w", err)
	}
	return nil
}

// Close releases the socket; a Do blocked on a reply returns.
func (c *Client) Close() error {
	var err error
	c.closeOnce.Do(func() { err = c.conn.Close() })
	return err
}
