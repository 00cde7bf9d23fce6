package udprpc

import (
	"net"
	"testing"
	"time"
)

// echoServer replies to every datagram after skip initial drops.
func echoServer(t *testing.T, drop int) string {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	go func() {
		buf := make([]byte, 2048)
		dropped := 0
		for {
			// The AddrPort forms allocate nothing, so an echo costs the
			// allocation tests nothing either.
			n, peer, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			if dropped < drop {
				dropped++
				continue
			}
			conn.WriteToUDPAddrPort(buf[:n], peer)
		}
	}()
	return conn.LocalAddr().String()
}

func TestDoEcho(t *testing.T) {
	addr := echoServer(t, 0)
	c, err := Dial(addr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Do([]byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "ping" {
		t.Errorf("reply = %q", got)
	}
}

func TestDoRetriesThroughLoss(t *testing.T) {
	addr := echoServer(t, 2) // first two requests vanish
	c, err := Dial(addr, 50*time.Millisecond, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Do([]byte("persistent"))
	if err != nil {
		t.Fatalf("retries should have succeeded: %v", err)
	}
	if string(got) != "persistent" {
		t.Errorf("reply = %q", got)
	}
}

func TestDoTimesOut(t *testing.T) {
	// A listener that never replies.
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c, err := Dial(conn.LocalAddr().String(), 20*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := c.Do([]byte("void")); err == nil {
		t.Fatal("want timeout error")
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("returned after %v; should have retried twice at 20ms each", elapsed)
	}
}

func TestSend(t *testing.T) {
	addr := echoServer(t, 0)
	c, err := Dial(addr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send([]byte("oneway")); err != nil {
		t.Fatal(err)
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := Dial("not-an-address::::", 0, 0); err == nil {
		t.Error("bad address: want error")
	}
}

func TestDefaults(t *testing.T) {
	addr := echoServer(t, 0)
	c, err := Dial(addr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.timeout != DefaultTimeout || c.retries != DefaultRetries {
		t.Errorf("defaults = %v/%d", c.timeout, c.retries)
	}
}

func TestDoRealClockDoesNotAllocate(t *testing.T) {
	addr := echoServer(t, 0)
	c, err := Dial(addr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	req := []byte("ping")
	if n := testing.AllocsPerRun(100, func() {
		if _, err := c.Do(req); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Do: %v allocs/op, want 0", n)
	}
}

// TestDoDrainsStaleReply: a reply that arrives after its call timed out
// is still queued when the next call starts, and must not answer it.
func TestDoDrainsStaleReply(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		buf := make([]byte, 2048)
		for first := true; ; first = false {
			n, peer, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			if first {
				time.Sleep(60 * time.Millisecond) // answer after the caller gave up
			}
			conn.WriteToUDP(buf[:n], peer)
		}
	}()
	c, err := Dial(conn.LocalAddr().String(), 20*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Do([]byte("slow")); err == nil {
		t.Fatal("want the first call to time out")
	}
	time.Sleep(100 * time.Millisecond) // the late "slow" reply is now queued
	got, err := c.Do([]byte("fresh"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "fresh" {
		t.Errorf("reply = %q, want %q (a stale reply answered the call)", got, "fresh")
	}
}
