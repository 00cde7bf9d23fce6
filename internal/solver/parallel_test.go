package solver

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

// buildBusyRoom compiles an n-machine Table 1 room and perturbs it so
// the parallel phases have real work to disagree on if they were
// wrong: mixed utilizations, an off machine, a pinned inlet, and a
// fiddled conductance.
func buildBusyRoom(t testing.TB, n, workers int) *Solver {
	return busyRun(t, n, Config{Workers: workers}).solver()
}

// busyRun builds buildBusyRoom's room beside the frozen reference.
func busyRun(t testing.TB, n int, cfg Config) *diffRun {
	t.Helper()
	c, err := model.DefaultCluster("room", n)
	if err != nil {
		t.Fatal(err)
	}
	ops := cpuLoad(n)
	if n >= 3 {
		ops = append(ops,
			diffOp{kind: opPower, machine: "machine2", on: false},
			diffOp{kind: opPin, machine: "machine3", v: 31.5})
	}
	ops = append(ops, diffOp{kind: opHeatK, machine: "machine1", a: model.NodeCPU, b: model.NodeCPUAir, v: 2.2})
	return newDiffRun(t, c, cfg, 1, ops...)
}

// TestParallelDeterminism asserts the solver's core guarantee: after
// 1000 steps, node temperatures are bit-identical between exhaustive
// serial stepping (the frozen reference) and every worker count, each
// skipping the machines the active set proves quiet.
func TestParallelDeterminism(t *testing.T) {
	const n, steps = 16, 1000
	for _, workers := range []int{0, 1, 2, 3, 5, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			busyRun(t, n, Config{Workers: workers}).apply(diffOp{kind: opStepN, n: steps})
		})
	}
}

// TestParallelMoreWorkersThanMachines covers the degenerate shardings:
// more workers than machines, and a single machine.
func TestParallelMoreWorkersThanMachines(t *testing.T) {
	for _, n := range []int{1, 2} {
		ref := buildBusyRoom(t, 4, 1)
		ref.StepN(50)
		s := buildBusyRoom(t, 4, 16*n)
		s.StepN(50)
		wantT, err := ref.Temperature("machine1", model.NodeCPU)
		if err != nil {
			t.Fatal(err)
		}
		gotT, err := s.Temperature("machine1", model.NodeCPU)
		if err != nil {
			t.Fatal(err)
		}
		if gotT != wantT {
			t.Errorf("workers=%d: cpu %v, serial %v", 16*n, gotT, wantT)
		}
	}
}

// TestShardBounds checks the sharding arithmetic directly.
func TestShardBounds(t *testing.T) {
	cases := []struct {
		n, workers int
		want       [][2]int
	}{
		{0, 4, nil},
		{1, 4, [][2]int{{0, 1}}},
		{4, 1, [][2]int{{0, 4}}},
		{5, 2, [][2]int{{0, 3}, {3, 5}}},
		{6, 4, [][2]int{{0, 2}, {2, 4}, {4, 6}}},
		{8, 4, [][2]int{{0, 2}, {2, 4}, {4, 6}, {6, 8}}},
	}
	for _, c := range cases {
		got := shardBounds(c.n, c.workers)
		if len(got) != len(c.want) {
			t.Errorf("shardBounds(%d, %d) = %v, want %v", c.n, c.workers, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("shardBounds(%d, %d) = %v, want %v", c.n, c.workers, got, c.want)
				break
			}
		}
	}
}

// TestConfigValidation covers the New-time error paths: negative
// worker counts and a region index without regions are rejected;
// boundary values still work.
func TestConfigValidation(t *testing.T) {
	m := model.DefaultServer("m1")
	for _, bad := range []Config{
		{Workers: -1},
		{RegionIndex: 3},
	} {
		if _, err := NewSingle(m, bad); err == nil {
			t.Errorf("New(%+v) succeeded, want error", bad)
		}
	}
	for _, good := range []Config{
		{}, // zero value: defaults
		{Workers: 7},
	} {
		if _, err := NewSingle(m, good); err != nil {
			t.Errorf("New(%+v) = %v, want success", good, err)
		}
	}
}

// TestRunUntilSteady runs a constant-load machine to convergence and
// checks the detector agrees across worker counts.
func TestRunUntilSteady(t *testing.T) {
	const tol = units.Celsius(0.001)
	run := func(workers int) (time.Duration, bool, units.Celsius) {
		s, err := NewSingle(model.DefaultServer("m1"), Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetUtilization("m1", model.UtilCPU, 0.8); err != nil {
			t.Fatal(err)
		}
		elapsed, ok := s.RunUntilSteady(tol, 10*time.Hour)
		temp, err := s.Temperature("m1", model.NodeCPU)
		if err != nil {
			t.Fatal(err)
		}
		return elapsed, ok, temp
	}
	elapsed1, ok1, temp1 := run(1)
	if !ok1 {
		t.Fatalf("serial run did not converge within 10h (elapsed %v)", elapsed1)
	}
	if elapsed1 <= 0 {
		t.Fatalf("converged with no elapsed time")
	}
	elapsedN, okN, tempN := run(0)
	if !okN || elapsedN != elapsed1 || tempN != temp1 {
		t.Errorf("auto workers: (%v, %v, %v), serial (%v, %v, %v)",
			elapsedN, okN, tempN, elapsed1, ok1, temp1)
	}
	// The detected fixed point should agree with the analytic one.
	s, err := NewSingle(model.DefaultServer("m1"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetUtilization("m1", model.UtilCPU, 0.8); err != nil {
		t.Fatal(err)
	}
	steady, err := s.SteadyState("m1")
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(float64(temp1 - steady[model.NodeCPU])); d > 0.5 {
		t.Errorf("RunUntilSteady CPU %v vs analytic %v (|d|=%.3f)", temp1, steady[model.NodeCPU], d)
	}
	// A zero time budget cannot converge.
	if _, ok := s.RunUntilSteady(tol, 0); ok {
		t.Error("RunUntilSteady(_, 0) reported convergence")
	}
}

// TestConcurrentHammer is the race regression required by the ISSUE:
// it pounds the solver's query and fiddle surface from many goroutines
// while Run advances emulated time, so `go test -race` exercises the
// worker pool against the public API. The assertions are deliberately
// light — the race detector is the real check.
func TestConcurrentHammer(t *testing.T) {
	// Workers is explicit (not 0/auto) so the pool exists even on a
	// single-CPU runner.
	s := buildBusyRoom(t, 8, 4)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	hammer := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					fn(i)
				}
			}
		}()
	}
	hammer(func(i int) {
		if _, err := s.Temperature("machine1", model.NodeCPU); err != nil {
			t.Error(err)
		}
	})
	hammer(func(i int) {
		s.SaveState()
		s.Snapshot()
	})
	hammer(func(i int) {
		if err := s.SetUtilization("machine5", model.UtilCPU, units.Fraction(float64(i%100)/100)); err != nil {
			t.Error(err)
		}
	})
	hammer(func(i int) {
		if err := s.SetMachinePower("machine6", i%2 == 0); err != nil {
			t.Error(err)
		}
		if err := s.SetPowerScale("machine7", model.NodeCPU, units.Fraction(0.5+float64(i%50)/100)); err != nil {
			t.Error(err)
		}
	})
	hammer(func(i int) {
		if err := s.PinInlet("machine8", units.Celsius(20+float64(i%10))); err != nil {
			t.Error(err)
		}
		if err := s.UnpinInlet("machine8"); err != nil {
			t.Error(err)
		}
	})
	hammer(func(i int) {
		st := s.SaveState()
		if i%10 == 0 {
			if err := s.RestoreState(st); err != nil {
				t.Error(err)
			}
		}
	})
	hammer(func(i int) {
		s.LastStepDelta()
		if _, err := s.ExhaustTemperature("machine2"); err != nil {
			t.Error(err)
		}
	})
	for i := 0; i < 20; i++ {
		s.Run(30 * time.Second)
	}
	close(stop)
	wg.Wait()
	// RestoreState may roll the step counter back to a stale snapshot,
	// so only sanity-check that stepping happened at all.
	if s.SaveState().Steps == 0 {
		t.Error("solver never stepped")
	}
}
