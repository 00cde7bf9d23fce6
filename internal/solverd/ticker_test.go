package solverd

import (
	"sync"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/solver"
)

// TestTickerCatchesUpMissedTicks wedges one artificially slow step
// into the real-clock ticker loop: time.Ticker coalesces the fires
// that land during the stall, and the daemon must make up the deficit
// instead of silently losing emulated time.
func TestTickerCatchesUpMissedTicks(t *testing.T) {
	c, err := model.DefaultCluster("room", 1)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solver.New(c, solver.Config{Step: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Listen("127.0.0.1:0", sol)
	if err != nil {
		t.Fatal(err)
	}
	var slowOnce sync.Once
	srv.stepFn = func() {
		slowOnce.Do(func() { time.Sleep(45 * time.Millisecond) })
		sol.Step()
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })

	srv.StartTicker()
	waitFor(t, func() bool { return srv.Stats().SolverSteps.Load() >= 8 })
	if srv.Stats().MissedTicks.Load() == 0 {
		t.Error("a 45ms stall across 10ms ticks should have missed ticks")
	}
	// Every counted step really ran the solver.
	if got, counted := sol.SaveState().Steps, srv.Stats().SolverSteps.Load(); got < counted {
		t.Errorf("solver stepped %d times but ticker counted %d", got, counted)
	}
}

// TestTickerVirtualDeterministic advances a virtual clock in exact
// step quanta: the daemon must take exactly one step per advance and
// never miss a tick.
func TestTickerVirtualDeterministic(t *testing.T) {
	c, err := model.DefaultCluster("room", 1)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solver.New(c, solver.Config{Step: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewVirtual()
	srv, err := Listen("127.0.0.1:0", sol, WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	srv.StartTicker()
	for i := uint64(1); i <= 5; i++ {
		clk.Advance(time.Second)
		waitFor(t, func() bool { return srv.Stats().SolverSteps.Load() == i })
	}
	if got := srv.Stats().MissedTicks.Load(); got != 0 {
		t.Errorf("MissedTicks = %d, want 0 under lockstep advances", got)
	}
	if sol.SaveState().Steps != 5 {
		t.Errorf("solver steps = %d, want 5", sol.SaveState().Steps)
	}
	if sol.Now() != 5*time.Second {
		t.Errorf("emulated now = %v, want 5s", sol.Now())
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTickerVirtualBigAdvance jumps the virtual clock far ahead in one
// call: every intermediate tick must still be delivered and stepped
// (virtual tickers never coalesce).
func TestTickerVirtualBigAdvance(t *testing.T) {
	c, err := model.DefaultCluster("room", 1)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solver.New(c, solver.Config{Step: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewVirtual()
	srv, err := Listen("127.0.0.1:0", sol, WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	srv.StartTicker()
	clk.Advance(30 * time.Second)
	waitFor(t, func() bool { return srv.Stats().SolverSteps.Load() == 30 })
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if sol.Now() != 30*time.Second {
		t.Errorf("emulated now = %v, want 30s", sol.Now())
	}
}
