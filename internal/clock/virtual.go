package clock

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

// Virtual is a deterministic clock for warp-speed emulation. It only
// moves when Advance is called: waiters (sleeps, afters, ticker fires)
// are kept in a queue ordered by deadline — ties broken by
// registration order — and Advance fires them one at a time, setting
// the clock to each deadline as it goes. Two runs that register the
// same waiters and make the same Advance calls observe identical
// timelines.
//
// Delivery semantics differ by waiter kind, deliberately:
//
//   - After/Sleep waiters get a buffered send. They are transient;
//     a receiver that lost interest costs nothing.
//   - AfterFunc callbacks run on the advancing goroutine, in queue
//     order, and can be cancelled before they are due.
//   - Ticker fires are delivered synchronously: Advance blocks until
//     the consuming daemon has received the tick (or the ticker is
//     stopped). Virtual tickers therefore never coalesce or drop
//     ticks the way time.Ticker does, which keeps daemon loops
//     deterministic under arbitrarily large advances.
//
// A single goroutine should drive Advance — either an experiment
// harness in lockstep, or the warp pacer started by StartWarp, never
// both at once. Advance serializes internally, so violating this rule
// is safe but destroys the deterministic schedule.
type Virtual struct {
	mu      sync.Mutex
	now     time.Time
	start   time.Time
	seq     uint64
	waiters []*waiter

	advMu    sync.Mutex // serializes Advance
	warpStop chan struct{}
	warpDone chan struct{}
}

type waiter struct {
	deadline time.Time
	seq      uint64
	ch       chan time.Time // After/Sleep: buffered(1)
	fn       func()         // AfterFunc callback when non-nil
	tk       *vticker       // ticker waiter when non-nil
}

// before orders waiters by deadline, then by registration.
func (w *waiter) before(o *waiter) bool {
	if !w.deadline.Equal(o.deadline) {
		return w.deadline.Before(o.deadline)
	}
	return w.seq < o.seq
}

// NewVirtual returns a virtual clock at a fixed epoch (the Unix zero
// instant). Absolute readings are only meaningful relative to each
// other; Elapsed gives the emulated time since creation.
func NewVirtual() *Virtual {
	epoch := time.Unix(0, 0).UTC()
	return &Virtual{now: epoch, start: epoch}
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Elapsed returns the virtual time advanced since the clock was
// created.
func (v *Virtual) Elapsed() time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now.Sub(v.start)
}

// Waiters returns the number of queued waiters (pending afters plus
// armed tickers). Harnesses use it to confirm daemon start-up before
// the first Advance.
func (v *Virtual) Waiters() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.waiters)
}

// After implements Clock. A non-positive d fires immediately.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	v.mu.Lock()
	if d <= 0 {
		ch <- v.now
		v.mu.Unlock()
		return ch
	}
	v.insertLocked(&waiter{deadline: v.now.Add(d), seq: v.seq, ch: ch})
	v.mu.Unlock()
	return ch
}

// AfterFunc implements Clock: Advance calls f when the deadline falls
// inside its window, without holding the clock's lock. A non-positive
// d calls f before AfterFunc returns. stop dequeues the waiter, so a
// cancelled timeout leaves nothing behind in Waiters.
func (v *Virtual) AfterFunc(d time.Duration, f func()) (stop func() bool) {
	if d <= 0 {
		f()
		return func() bool { return false }
	}
	v.mu.Lock()
	w := &waiter{deadline: v.now.Add(d), seq: v.seq, fn: f}
	v.insertLocked(w)
	v.mu.Unlock()
	return func() bool { return v.remove(w) }
}

// remove dequeues w and reports whether it was still queued.
func (v *Virtual) remove(w *waiter) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	i := sort.Search(len(v.waiters), func(i int) bool { return !v.waiters[i].before(w) })
	if i == len(v.waiters) || v.waiters[i] != w {
		return false
	}
	v.waiters = slices.Delete(v.waiters, i, i+1)
	return true
}

// Sleep implements Clock: it blocks until the clock advances past the
// deadline. Some other goroutine must be driving Advance (or a warp
// pacer must be running), or Sleep blocks forever.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-v.After(d)
}

// NewTicker implements Clock.
func (v *Virtual) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic(fmt.Sprintf("clock: non-positive ticker period %v", d))
	}
	tk := &vticker{v: v, period: d, c: make(chan time.Time), stop: make(chan struct{})}
	v.mu.Lock()
	v.insertLocked(&waiter{deadline: v.now.Add(d), seq: v.seq, tk: tk})
	v.mu.Unlock()
	return tk
}

// insertLocked queues w in (deadline, seq) order and bumps seq.
func (v *Virtual) insertLocked(w *waiter) {
	v.seq++
	i := sort.Search(len(v.waiters), func(i int) bool { return w.before(v.waiters[i]) })
	v.waiters = append(v.waiters, nil)
	copy(v.waiters[i+1:], v.waiters[i:])
	v.waiters[i] = w
}

// Advance moves the clock forward by d, firing every waiter whose
// deadline falls inside the window in deterministic order. Ticker
// deliveries are synchronous (see the type comment); After deliveries
// are buffered; AfterFunc callbacks run here, in order. Advance
// returns with the clock exactly d later.
func (v *Virtual) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	v.advMu.Lock()
	defer v.advMu.Unlock()

	v.mu.Lock()
	target := v.now.Add(d)
	for {
		if len(v.waiters) == 0 || v.waiters[0].deadline.After(target) {
			v.now = target
			v.mu.Unlock()
			return
		}
		w := v.waiters[0]
		v.waiters = v.waiters[1:]
		if v.now.Before(w.deadline) {
			v.now = w.deadline
		}
		v.mu.Unlock()

		switch {
		case w.fn != nil:
			w.fn()
		case w.tk == nil:
			w.ch <- w.deadline
		default:
			select {
			case w.tk.c <- w.deadline:
				v.mu.Lock()
				select {
				case <-w.tk.stop:
					// Stopped while handling the tick: do not re-arm.
				default:
					v.insertLocked(&waiter{deadline: w.deadline.Add(w.tk.period), seq: v.seq, tk: w.tk})
				}
				continue
			case <-w.tk.stop:
				// Stopped ticker: drop without re-arming.
			}
		}
		v.mu.Lock()
	}
}

// AdvanceTo moves the clock to an elapsed offset from its start; a
// no-op if the clock is already past it.
func (v *Virtual) AdvanceTo(elapsed time.Duration) {
	v.Advance(elapsed - v.Elapsed())
}

// StartWarp begins pacing the clock at factor virtual seconds per wall
// second from a background goroutine (factor 100 turns a 2000 s
// emulated run into 20 s of wall clock). The pacer calls Advance in
// small wall-time quanta, so delivery order within each quantum is
// still the deterministic queue order, but quantum boundaries depend
// on the scheduler — experiment harnesses that need exact
// reproducibility should drive Advance themselves instead. StartWarp
// panics if the factor is not positive or the clock is already
// warping.
func (v *Virtual) StartWarp(factor float64) {
	if factor <= 0 {
		panic(fmt.Sprintf("clock: non-positive warp factor %v", factor))
	}
	v.mu.Lock()
	if v.warpStop != nil {
		v.mu.Unlock()
		panic("clock: StartWarp while already warping")
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	v.warpStop, v.warpDone = stop, done
	v.mu.Unlock()

	go func() {
		defer close(done)
		const quantum = 2 * time.Millisecond // wall time between advances
		wallBase := time.Now()
		virtBase := v.Elapsed()
		for {
			select {
			case <-stop:
				return
			default:
			}
			time.Sleep(quantum)
			targetVirt := virtBase + time.Duration(factor*float64(time.Since(wallBase)))
			if dv := targetVirt - v.Elapsed(); dv > 0 {
				v.Advance(dv)
			}
		}
	}()
}

// StopWarp stops the pacer started by StartWarp and waits for it to
// exit. A no-op if no pacer is running.
func (v *Virtual) StopWarp() {
	v.mu.Lock()
	stop, done := v.warpStop, v.warpDone
	v.warpStop, v.warpDone = nil, nil
	v.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// vticker is Virtual's Ticker.
type vticker struct {
	v      *Virtual
	period time.Duration
	c      chan time.Time
	stop   chan struct{}
	once   sync.Once
}

func (t *vticker) C() <-chan time.Time { return t.c }

// Stop makes pending and future fires of this ticker no-ops and
// unblocks an Advance currently trying to deliver to it.
func (t *vticker) Stop() {
	t.once.Do(func() {
		close(t.stop)
		// Drop the armed waiter so Waiters() reflects live daemons only.
		t.v.mu.Lock()
		for i, w := range t.v.waiters {
			if w.tk == t {
				t.v.waiters = append(t.v.waiters[:i], t.v.waiters[i+1:]...)
				break
			}
		}
		t.v.mu.Unlock()
	})
}
