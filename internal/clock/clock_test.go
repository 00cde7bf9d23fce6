package clock

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRealPassThrough(t *testing.T) {
	var c Clock = Real{}
	before := time.Now()
	if c.Now().Before(before) {
		t.Error("Real.Now went backwards")
	}
	start := time.Now()
	c.Sleep(time.Millisecond)
	if time.Since(start) < time.Millisecond {
		t.Error("Real.Sleep returned early")
	}
	select {
	case <-c.After(time.Millisecond):
	case <-time.After(time.Second):
		t.Fatal("Real.After never fired")
	}
	tk := c.NewTicker(time.Millisecond)
	defer tk.Stop()
	select {
	case <-tk.C():
	case <-time.After(time.Second):
		t.Fatal("Real ticker never fired")
	}
}

func TestVirtualAdvanceFiresAfters(t *testing.T) {
	v := NewVirtual()
	a := v.After(3 * time.Second)
	b := v.After(1 * time.Second)
	v.Advance(2 * time.Second)
	select {
	case at := <-b:
		if got := at.Sub(v.start); got != time.Second {
			t.Errorf("b fired at +%v, want +1s", got)
		}
	default:
		t.Fatal("b should have fired")
	}
	select {
	case <-a:
		t.Fatal("a fired early")
	default:
	}
	v.Advance(1 * time.Second)
	select {
	case <-a:
	default:
		t.Fatal("a should have fired")
	}
	if v.Elapsed() != 3*time.Second {
		t.Errorf("Elapsed = %v", v.Elapsed())
	}
}

func TestVirtualAfterNonPositive(t *testing.T) {
	v := NewVirtual()
	select {
	case <-v.After(0):
	default:
		t.Error("After(0) should fire immediately")
	}
	done := make(chan struct{})
	go func() { v.Sleep(-time.Second); v.Sleep(0); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("non-positive Sleep blocked")
	}
}

func TestVirtualSleepBlocksUntilAdvance(t *testing.T) {
	v := NewVirtual()
	woke := make(chan struct{})
	ready := make(chan struct{})
	go func() {
		close(ready)
		v.Sleep(5 * time.Second)
		close(woke)
	}()
	<-ready
	waitFor(t, func() bool { return v.Waiters() == 1 })
	select {
	case <-woke:
		t.Fatal("Sleep returned before Advance")
	default:
	}
	v.Advance(5 * time.Second)
	select {
	case <-woke:
	case <-time.After(time.Second):
		t.Fatal("Sleep never woke")
	}
}

// TestVirtualDeterministicOrder verifies equal-deadline waiters fire
// in registration order and earlier deadlines always fire first, even
// within a single large Advance.
func TestVirtualDeterministicOrder(t *testing.T) {
	v := NewVirtual()
	var mu sync.Mutex
	var order []string
	record := func(name string, ch <-chan time.Time) {
		go func() {
			<-ch
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		}()
	}
	// Registration order: b2(2s), a2(2s), c1(1s).
	b2 := v.After(2 * time.Second)
	a2 := v.After(2 * time.Second)
	c1 := v.After(1 * time.Second)

	// Fire them all in one Advance; deliveries are buffered, so drain
	// sequentially to observe queue order.
	v.Advance(5 * time.Second)
	record("c1", c1)
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(order) == 1 })
	record("b2", b2)
	record("a2", a2)
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(order) == 3 })

	// The timestamps carried by the channels encode firing instants.
	// c1 fired at +1s; b2 and a2 at +2s.
	if got := order[0]; got != "c1" {
		t.Errorf("first = %s, want c1", got)
	}
}

func TestVirtualTickerDeliversEveryTick(t *testing.T) {
	v := NewVirtual()
	tk := v.NewTicker(time.Second)
	var stamps []time.Duration
	done := make(chan struct{})
	go func() {
		for i := 0; i < 5; i++ {
			at := <-tk.C()
			stamps = append(stamps, at.Sub(v.start))
		}
		close(done)
	}()
	// One big jump: a time.Ticker would coalesce; the virtual ticker
	// must deliver all five ticks, in order, with exact stamps.
	v.Advance(5 * time.Second)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("ticks never all arrived")
	}
	for i, want := 0, time.Second; i < 5; i, want = i+1, want+time.Second {
		if stamps[i] != want {
			t.Errorf("tick %d at +%v, want +%v", i, stamps[i], want)
		}
	}
	tk.Stop()
	if v.Waiters() != 0 {
		t.Errorf("Waiters after Stop = %d", v.Waiters())
	}
}

func TestVirtualTickerStopUnblocksAdvance(t *testing.T) {
	v := NewVirtual()
	tk := v.NewTicker(time.Second)
	advanced := make(chan struct{})
	go func() {
		v.Advance(3 * time.Second) // nobody consumes the tick
		close(advanced)
	}()
	// Give Advance a moment to block on the unconsumed delivery, then
	// stop the ticker: Advance must complete.
	time.Sleep(10 * time.Millisecond)
	tk.Stop()
	select {
	case <-advanced:
	case <-time.After(2 * time.Second):
		t.Fatal("Advance still blocked after ticker Stop")
	}
	if v.Elapsed() != 3*time.Second {
		t.Errorf("Elapsed = %v", v.Elapsed())
	}
}

func TestVirtualAdvanceTo(t *testing.T) {
	v := NewVirtual()
	v.AdvanceTo(10 * time.Second)
	if v.Elapsed() != 10*time.Second {
		t.Errorf("Elapsed = %v", v.Elapsed())
	}
	v.AdvanceTo(5 * time.Second) // backwards: no-op
	if v.Elapsed() != 10*time.Second {
		t.Errorf("Elapsed after backwards AdvanceTo = %v", v.Elapsed())
	}
}

func TestVirtualWarpPacesSleep(t *testing.T) {
	v := NewVirtual()
	v.StartWarp(1000) // 1000 virtual seconds per wall second
	defer v.StopWarp()
	start := time.Now()
	v.Sleep(10 * time.Second) // 10 virtual seconds ≈ 10ms wall
	elapsed := time.Since(start)
	if elapsed > 5*time.Second {
		t.Errorf("warped 10s sleep took %v of wall clock", elapsed)
	}
	if v.Elapsed() < 10*time.Second {
		t.Errorf("Elapsed = %v, want >= 10s", v.Elapsed())
	}
}

func TestVirtualWarpStopIdempotent(t *testing.T) {
	v := NewVirtual()
	v.StopWarp() // no pacer: no-op
	v.StartWarp(10)
	v.StopWarp()
	v.StopWarp()
	// Restarting after a stop must work.
	v.StartWarp(10)
	v.StopWarp()
}

func TestVirtualNewTickerPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTicker(0) should panic")
		}
	}()
	NewVirtual().NewTicker(0)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRealAfterFunc(t *testing.T) {
	fired := make(chan struct{})
	Real{}.AfterFunc(time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("Real.AfterFunc never fired")
	}
	stop := Real{}.AfterFunc(time.Hour, func() { t.Error("stopped func ran") })
	if !stop() {
		t.Error("stop of a pending func = false, want true")
	}
}

// TestVirtualAfterFunc: callbacks run on the advancing goroutine in
// (deadline, registration) order, interleaved with other waiters, and
// a stopped one leaves the queue at once.
func TestVirtualAfterFunc(t *testing.T) {
	v := NewVirtual()
	var order []string
	v.AfterFunc(2*time.Second, func() { order = append(order, "b2") })
	stopA := v.AfterFunc(2*time.Second, func() { order = append(order, "a2") })
	after := v.After(time.Second)
	v.AfterFunc(time.Second, func() {
		order = append(order, "c1")
		if v.Elapsed() != time.Second {
			t.Errorf("c1 ran at %v, want 1s", v.Elapsed())
		}
	})
	if v.Waiters() != 4 {
		t.Fatalf("Waiters = %d, want 4", v.Waiters())
	}
	if !stopA() {
		t.Error("stop of a queued func = false, want true")
	}
	if stopA() {
		t.Error("second stop = true, want false")
	}
	if v.Waiters() != 3 {
		t.Errorf("Waiters after stop = %d, want 3", v.Waiters())
	}
	v.Advance(3 * time.Second)
	<-after
	if got := strings.Join(order, ","); got != "c1,b2" {
		t.Errorf("order = %s, want c1,b2", got)
	}
	if v.Waiters() != 0 {
		t.Errorf("Waiters after firing = %d, want 0", v.Waiters())
	}

	stop := v.AfterFunc(time.Second, func() {})
	v.Advance(time.Second)
	if stop() {
		t.Error("stop after the func ran = true, want false")
	}
	ran := false
	v.AfterFunc(0, func() { ran = true })
	if !ran {
		t.Error("AfterFunc(0) should run f before returning")
	}
}
