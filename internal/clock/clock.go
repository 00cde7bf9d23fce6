// Package clock abstracts time for Mercury's daemons. Every component
// that used to call time.Now, time.Sleep, time.After or time.NewTicker
// takes a Clock instead, so the whole online stack — solverd's stepping
// ticker, monitord's sampling loop, Freon's tempd/admd periods, fiddle
// script sleeps and udprpc retry deadlines — can run against either
// the real wall clock or a deterministic virtual clock.
//
// Real is a trivial pass-through to package time. Virtual keeps an
// ordered waiter queue and only moves when Advance is called (or when a
// warp pacer advances it at N× wall speed), which is what lets a
// 2000-second online emulation finish in seconds of wall-clock time
// while exercising exactly the same daemon code paths.
package clock

import "time"

// Clock is the time source Mercury components are written against.
type Clock interface {
	// Now returns the current instant on this clock.
	Now() time.Time
	// Sleep blocks until the clock has advanced by d.
	Sleep(d time.Duration)
	// AfterFunc calls f once the clock has advanced by d. stop cancels
	// the call and reports whether it did; false means f has run or is
	// running. A Virtual clock calls f on the goroutine that advances
	// it, so f must be short and must not advance the clock.
	AfterFunc(d time.Duration, f func()) (stop func() bool)
	// NewTicker returns a ticker that fires every d on this clock.
	// Like time.NewTicker, d must be positive.
	NewTicker(d time.Duration) Ticker
}

// Ticker is the clock-agnostic slice of time.Ticker the daemons use.
type Ticker interface {
	// C returns the delivery channel.
	C() <-chan time.Time
	// Stop shuts the ticker down. As with time.Ticker, Stop does not
	// close the channel; unlike time.Ticker it is required for virtual
	// tickers, whose deliveries would otherwise block Advance forever.
	Stop()
}

// Real is the wall clock: a pass-through to package time.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) func() bool { return time.AfterFunc(d, f).Stop }

// NewTicker implements Clock.
func (Real) NewTicker(d time.Duration) Ticker { return realTicker{time.NewTicker(d)} }

type realTicker struct{ t *time.Ticker }

func (r realTicker) C() <-chan time.Time { return r.t.C }
func (r realTicker) Stop()               { r.t.Stop() }
