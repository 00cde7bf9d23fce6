package udprpc

import (
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/clock"
)

// countingServer counts requests, drops the first `drop`, and echoes
// the rest.
func countingServer(t *testing.T, drop int) (string, *atomic.Int64) {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	var seen atomic.Int64
	go func() {
		buf := make([]byte, 2048)
		for {
			n, peer, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			if seen.Add(1) <= int64(drop) {
				continue
			}
			conn.WriteToUDP(buf[:n], peer)
		}
	}()
	return conn.LocalAddr().String(), &seen
}

// virtualWaitFor polls cond with a real-time guard so a broken virtual
// schedule fails the test instead of hanging it.
func virtualWaitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDoVirtualTimeRetries drives the retry schedule purely with
// virtual advances: two timeouts elapse without a millisecond of
// wall-clock waiting, and the third attempt succeeds.
func TestDoVirtualTimeRetries(t *testing.T) {
	addr, seen := countingServer(t, 2)
	clk := clock.NewVirtual()
	c, err := DialClock(addr, time.Second, 3, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type result struct {
		rep []byte
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := c.Do([]byte("stubborn"))
		done <- result{rep, err}
	}()

	for attempt := 1; attempt <= 2; attempt++ {
		virtualWaitFor(t, func() bool {
			return seen.Load() >= int64(attempt) && clk.Waiters() == 1
		})
		clk.Advance(time.Second) // expire this attempt's reply timeout
	}
	res := <-done
	if res.err != nil {
		t.Fatalf("Do after virtual retries: %v", res.err)
	}
	if string(res.rep) != "stubborn" {
		t.Errorf("reply = %q", res.rep)
	}
	if got := seen.Load(); got != 3 {
		t.Errorf("server saw %d requests, want 3", got)
	}
	if clk.Elapsed() != 2*time.Second {
		t.Errorf("virtual elapsed = %v, want exactly 2s (two timeouts)", clk.Elapsed())
	}
}

func TestDoVirtualTimeExhaustsRetries(t *testing.T) {
	// A listener that never replies.
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	clk := clock.NewVirtual()
	c, err := DialClock(conn.LocalAddr().String(), time.Second, 2, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	done := make(chan error, 1)
	go func() {
		_, err := c.Do([]byte("void"))
		done <- err
	}()
	for attempt := 0; attempt < 2; attempt++ {
		virtualWaitFor(t, func() bool { return clk.Waiters() == 1 })
		clk.Advance(time.Second)
	}
	err = <-done
	if err == nil {
		t.Fatal("want timeout error")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("error = %v, want ErrTimeout in chain", err)
	}
	if !strings.Contains(err.Error(), "2 attempts") {
		t.Errorf("error = %v, want attempt count", err)
	}
}

func TestDoAfterClose(t *testing.T) {
	addr, _ := countingServer(t, 0)
	c, err := Dial(addr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
	if _, err := c.Do([]byte("late")); err == nil {
		t.Error("Do on closed client: want error")
	}
}

// TestDoVirtualLeavesNoWaiter: a reply cancels its attempt's timeout,
// so successful reads leave nothing queued on the clock.
func TestDoVirtualLeavesNoWaiter(t *testing.T) {
	addr, _ := countingServer(t, 0)
	clk := clock.NewVirtual()
	c, err := DialClock(addr, time.Second, 3, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 100; i++ {
		if _, err := c.Do([]byte("read")); err != nil {
			t.Fatal(err)
		}
	}
	if n := clk.Waiters(); n != 0 {
		t.Errorf("Waiters after 100 reads = %d, want 0", n)
	}
}

// TestDoVirtualBackstop: when nothing advances the clock (a lockstep
// harness blocked in Do is the only goroutine that would), a lost reply
// fails the call after the real-time backstop instead of hanging it.
func TestDoVirtualBackstop(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	clk := clock.NewVirtual()
	c, err := DialClock(conn.LocalAddr().String(), time.Second, 3, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.backstop = 50 * time.Millisecond
	start := time.Now()
	_, err = c.Do([]byte("lost"))
	if err == nil || !strings.Contains(err.Error(), "of real time") {
		t.Fatalf("err = %v, want the real-time backstop error", err)
	}
	if errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v: the backstop is not a clock timeout to retry", err)
	}
	if waited := time.Since(start); waited < 50*time.Millisecond || waited > 5*time.Second {
		t.Errorf("returned after %v, want one 50ms backstop", waited)
	}
	if n := clk.Waiters(); n != 0 {
		t.Errorf("Waiters after the backstop = %d, want 0", n)
	}
}

// TestDoVirtualConcurrentAdvance races replies against timeouts fired
// by a clock advancing on another goroutine. The server drops every
// other request, so half the attempts must be timed out by the clock;
// every call still completes and cancels or collects its timeout, and
// the race detector watches the hand-off between the callback and Do.
func TestDoVirtualConcurrentAdvance(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		buf := make([]byte, 2048)
		for odd := true; ; odd = !odd {
			n, peer, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			if !odd {
				conn.WriteToUDPAddrPort(buf[:n], peer)
			}
		}
	}()
	addr := conn.LocalAddr().String()
	clk := clock.NewVirtual()
	c, err := DialClock(addr, time.Millisecond, 1000, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				// Each advance times out the attempt in flight, if any.
				clk.Advance(time.Millisecond)
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	for i := 0; i < 100; i++ {
		if _, err := c.Do([]byte("race")); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	close(stop)
	<-done
	if n := clk.Waiters(); n != 0 {
		t.Errorf("Waiters = %d, want 0", n)
	}
}
