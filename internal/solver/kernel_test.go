package solver

import (
	"fmt"
	"math"
	"testing"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

// rebuildCaches recompiles every coefficient set's derived
// coefficients and every machine's draws from scratch — the reference
// the rebinding and refreshes performed by the fiddle operations are
// measured against. The shapes hold no cached numbers, only the
// immutable topology.
func rebuildCaches(t *testing.T, s *Solver) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, set := range s.sets.sets {
		set.compile()
	}
	for mi := range s.ms {
		s.refreshDraws(mi)
		s.dirty[mi] = true
		s.quiet[mi] = false
	}
}

// assertBitIdentical compares every node temperature, exhaust mix, and
// energy counter of two solvers bitwise.
func assertBitIdentical(t *testing.T, label string, got, want *Solver) {
	t.Helper()
	ws, gs := want.Snapshot(), got.Snapshot()
	for machine, nodes := range ws {
		for node, wt := range nodes {
			gt := gs[machine][node]
			if math.Float64bits(float64(gt)) != math.Float64bits(float64(wt)) {
				t.Errorf("%s: %s/%s = %v, reference %v (not bit-identical)",
					label, machine, node, gt, wt)
			}
		}
		we, err := want.Energy(machine)
		if err != nil {
			t.Fatal(err)
		}
		ge, err := got.Energy(machine)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(float64(ge)) != math.Float64bits(float64(we)) {
			t.Errorf("%s: %s energy = %v, reference %v", label, machine, ge, we)
		}
		wx, err := want.ExhaustTemperature(machine)
		if err != nil {
			t.Fatal(err)
		}
		gx, err := got.ExhaustTemperature(machine)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(float64(gx)) != math.Float64bits(float64(wx)) {
			t.Errorf("%s: %s exhaust = %v, reference %v", label, machine, gx, wx)
		}
	}
	if g, w := got.LastStepDelta(), want.LastStepDelta(); math.Float64bits(float64(g)) != math.Float64bits(float64(w)) {
		t.Errorf("%s: LastStepDelta %v, reference %v", label, g, w)
	}
}

// TestFiddleInvalidation asserts, for each fiddle operation, that the
// incremental coefficient refresh it performs leaves the kernel in
// exactly the state a from-scratch recompile produces: two identical
// solvers warm up together, the op is applied to both, one of them
// additionally rebuilds every cached table from the model state, and
// the trajectories must stay Float64bits-equal for hundreds of further
// steps. A stale cache (missing or wrong refresh call) diverges within
// a step or two.
func TestFiddleInvalidation(t *testing.T) {
	ops := []struct {
		name string
		op   func(t *testing.T, s *Solver)
	}{
		{"SetAirFraction", func(t *testing.T, s *Solver) {
			if err := s.SetAirFraction("machine1", model.NodeInlet, model.NodePSAir, 0.45); err != nil {
				t.Fatal(err)
			}
			if err := s.SetAirFraction("machine1", model.NodeInlet, model.NodeDiskAir, 0.45); err != nil {
				t.Fatal(err)
			}
		}},
		{"SetConductance", func(t *testing.T, s *Solver) {
			if err := s.SetHeatK("machine2", model.NodeCPU, model.NodeCPUAir, 3.1); err != nil {
				t.Fatal(err)
			}
		}},
		{"SetPowerScale", func(t *testing.T, s *Solver) {
			if err := s.SetPowerScale("machine1", model.NodeCPU, 0.6); err != nil {
				t.Fatal(err)
			}
		}},
		{"PinInlet", func(t *testing.T, s *Solver) {
			if err := s.PinInlet("machine2", 36.4); err != nil {
				t.Fatal(err)
			}
		}},
		{"UnpinInlet", func(t *testing.T, s *Solver) {
			if err := s.PinInlet("machine2", 36.4); err != nil {
				t.Fatal(err)
			}
			if err := s.UnpinInlet("machine2"); err != nil {
				t.Fatal(err)
			}
		}},
		{"MachineOff", func(t *testing.T, s *Solver) {
			if err := s.SetMachinePower("machine3", false); err != nil {
				t.Fatal(err)
			}
		}},
		{"MachineOffOn", func(t *testing.T, s *Solver) {
			if err := s.SetMachinePower("machine3", false); err != nil {
				t.Fatal(err)
			}
			if err := s.SetMachinePower("machine3", true); err != nil {
				t.Fatal(err)
			}
		}},
		{"SetFanFlow", func(t *testing.T, s *Solver) {
			if err := s.SetFanFlow("machine1", 25); err != nil {
				t.Fatal(err)
			}
		}},
		{"SetUtilization", func(t *testing.T, s *Solver) {
			if err := s.SetUtilization("machine2", model.UtilDisk, 0.9); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range ops {
		t.Run(tc.name, func(t *testing.T) {
			cached := buildBusyRoom(t, 4, 1)
			fresh := buildBusyRoom(t, 4, 1)
			cached.StepN(300)
			fresh.StepN(300)
			tc.op(t, cached)
			tc.op(t, fresh)
			rebuildCaches(t, fresh)
			for i := 0; i < 3; i++ {
				cached.StepN(100)
				fresh.StepN(100)
				assertBitIdentical(t, fmt.Sprintf("%s after %d steps", tc.name, (i+1)*100), cached, fresh)
			}
		})
	}
}

// activeSetPair builds the same busy room twice, with and without
// Config.ActiveSet, and steps both in lockstep via the returned
// functions.
func activeSetPair(t *testing.T, n int) (active, exhaustive *Solver) {
	t.Helper()
	build := func(activeSet bool) *Solver {
		c, err := model.DefaultCluster("room", n)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(c, Config{ActiveSet: activeSet})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= n; i++ {
			if err := s.SetUtilization(fmt.Sprintf("machine%d", i), model.UtilCPU,
				units.Fraction(float64(i%10)/10)); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	return build(true), build(false)
}

// quietCount reports how many machines the active set currently skips.
func quietCount(s *Solver) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for mi := range s.ms {
		if s.quiet[mi] && !s.dirty[mi] {
			n++
		}
	}
	return n
}

// TestActiveSetQuiescence drives a room to its exact fixed point and
// checks that (1) every machine goes quiet, (2) the skipped stepping
// remains bit-identical to exhaustive stepping — including the energy
// counters, which keep accruing while quiet — and (3) any input change
// re-activates the affected machine and the trajectories stay
// bit-identical through the transient.
func TestActiveSetQuiescence(t *testing.T) {
	const n = 4
	active, exhaustive := activeSetPair(t, n)

	// Drive both to the exact fixed point (~17k steps for the default
	// server; bounded so a regression fails rather than hangs).
	const chunk, maxChunks = 2000, 20
	converged := false
	for i := 0; i < maxChunks; i++ {
		active.StepN(chunk)
		exhaustive.StepN(chunk)
		if active.LastStepDelta() == 0 && exhaustive.LastStepDelta() == 0 {
			converged = true
			break
		}
	}
	if !converged {
		t.Fatalf("no exact fixed point within %d steps (delta %v)", chunk*maxChunks, active.LastStepDelta())
	}
	assertBitIdentical(t, "at fixed point", active, exhaustive)
	if q := quietCount(active); q != n {
		t.Errorf("at fixed point: %d of %d machines quiet", q, n)
	}

	// Steps while quiet must advance time and energy identically.
	active.StepN(500)
	exhaustive.StepN(500)
	assertBitIdentical(t, "after 500 quiet steps", active, exhaustive)
	if q := quietCount(active); q != n {
		t.Errorf("after quiet steps: %d of %d machines quiet", q, n)
	}

	// A utilization change re-activates machine1; the others stay
	// quiet. Trajectories must stay bit-identical through the new
	// transient.
	for _, s := range []*Solver{active, exhaustive} {
		if err := s.SetUtilization("machine1", model.UtilCPU, 0.95); err != nil {
			t.Fatal(err)
		}
	}
	if q := quietCount(active); q != n-1 {
		t.Errorf("after utilization change: %d machines quiet, want %d", q, n-1)
	}
	active.StepN(200)
	exhaustive.StepN(200)
	assertBitIdentical(t, "after reactivating transient", active, exhaustive)

	// An inlet pin re-activates via the inlet phase's bitwise compare.
	for _, s := range []*Solver{active, exhaustive} {
		if err := s.PinInlet("machine2", 33.3); err != nil {
			t.Fatal(err)
		}
	}
	active.StepN(200)
	exhaustive.StepN(200)
	assertBitIdentical(t, "after inlet pin", active, exhaustive)

	// A fiddled conductance re-activates machine3.
	for _, s := range []*Solver{active, exhaustive} {
		if err := s.SetHeatK("machine3", model.NodeCPU, model.NodeCPUAir, 2.6); err != nil {
			t.Fatal(err)
		}
	}
	active.StepN(200)
	exhaustive.StepN(200)
	assertBitIdentical(t, "after conductance change", active, exhaustive)
}

// TestActiveSetRepeatedIdenticalSamples checks that re-submitting the
// same utilization value (as a periodic monitord feed does) does not
// wake a quiet machine: SetUtilization compares bitwise before
// invalidating.
func TestActiveSetRepeatedIdenticalSamples(t *testing.T) {
	active, _ := activeSetPair(t, 2)
	for i := 0; i < 20; i++ {
		active.StepN(2000)
		if active.LastStepDelta() == 0 {
			break
		}
	}
	if active.LastStepDelta() != 0 {
		t.Fatal("room did not reach its fixed point")
	}
	if err := active.SetUtilization("machine1", model.UtilCPU, 0.1); err != nil {
		t.Fatal(err)
	}
	if q := quietCount(active); q != 2 {
		t.Errorf("identical re-sample woke a machine: %d of 2 quiet", q)
	}
	active.Step()
	if q := quietCount(active); q != 2 {
		t.Errorf("after step: %d of 2 quiet", q)
	}
}

// TestActiveSetRestoreState checks that RestoreState re-activates
// machines (restored state may be anywhere, including mid-transient)
// and stays bit-identical to exhaustive stepping afterwards.
func TestActiveSetRestoreState(t *testing.T) {
	active, exhaustive := activeSetPair(t, 2)
	active.StepN(500)
	exhaustive.StepN(500)
	st := active.SaveState()
	active.StepN(100)
	exhaustive.StepN(100)
	if err := active.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if err := exhaustive.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if q := quietCount(active); q != 0 {
		t.Errorf("after restore: %d machines still quiet", q)
	}
	active.StepN(200)
	exhaustive.StepN(200)
	assertBitIdentical(t, "after restore", active, exhaustive)
}
