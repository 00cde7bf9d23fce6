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
		we := machineState(t, want, machine).Energy
		ge := machineState(t, got, machine).Energy
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

// quiescenceRun builds an n-machine room under cpuLoad beside the
// frozen reference, which steps every machine every step.
func quiescenceRun(t *testing.T, n int) *diffRun {
	t.Helper()
	c, err := model.DefaultCluster("room", n)
	if err != nil {
		t.Fatal(err)
	}
	return newDiffRun(t, c, Config{}, 1, cpuLoad(n)...)
}

// cpuLoad sets machine i of a DefaultCluster room to CPU utilization
// (i mod 10)/10.
func cpuLoad(n int) []diffOp {
	var ops []diffOp
	for i := 1; i <= n; i++ {
		ops = append(ops, diffOp{kind: opUtil, machine: fmt.Sprintf("machine%d", i), entries: cpuUtil(float64(i%10) / 10)})
	}
	return ops
}

// cpuUtil is a one-entry report setting the CPU stream to u.
func cpuUtil(u float64) []model.UtilSample {
	return []model.UtilSample{{Source: model.UtilCPU, Util: units.Fraction(u)}}
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
	d := quiescenceRun(t, n)
	s := d.solver()
	d.apply(diffOp{kind: opQuiesce})
	if q := quietCount(s); q != n {
		t.Errorf("at fixed point: %d of %d machines quiet", q, n)
	}

	// Steps while quiet must advance time and energy identically.
	d.apply(diffOp{kind: opStepN, n: 500})
	if q := quietCount(s); q != n {
		t.Errorf("after quiet steps: %d of %d machines quiet", q, n)
	}

	// A utilization change re-activates machine1; the others stay
	// quiet. Trajectories must stay bit-identical through the new
	// transient.
	d.apply(diffOp{kind: opUtil, machine: "machine1", entries: cpuUtil(0.95)})
	if q := quietCount(s); q != n-1 {
		t.Errorf("after utilization change: %d machines quiet, want %d", q, n-1)
	}
	d.apply(diffOp{kind: opStepN, n: 200})

	// An inlet pin re-activates via the inlet phase's bitwise compare.
	d.apply(diffOp{kind: opPin, machine: "machine2", v: 33.3})
	d.apply(diffOp{kind: opStepN, n: 200})

	// A fiddled conductance re-activates machine3.
	d.apply(diffOp{kind: opHeatK, machine: "machine3", a: model.NodeCPU, b: model.NodeCPUAir, v: 2.6})
	d.apply(diffOp{kind: opStepN, n: 200})
}

// TestActiveSetRepeatedIdenticalSamples checks that re-submitting the
// same utilization value (as a periodic monitord feed does) does not
// wake a quiet machine: SetUtilization compares bitwise before
// invalidating.
func TestActiveSetRepeatedIdenticalSamples(t *testing.T) {
	d := quiescenceRun(t, 2)
	d.apply(diffOp{kind: opQuiesce})
	d.apply(diffOp{kind: opUtil, machine: "machine1", entries: cpuUtil(0.1)})
	if q := quietCount(d.solver()); q != 2 {
		t.Errorf("identical re-sample woke a machine: %d of 2 quiet", q)
	}
	d.apply(diffOp{kind: opStep})
	if q := quietCount(d.solver()); q != 2 {
		t.Errorf("after step: %d of 2 quiet", q)
	}
}

// TestActiveSetRestoreState checks that RestoreState re-activates
// machines (restored state may be anywhere, including mid-transient)
// and stays bit-identical to exhaustive stepping afterwards.
func TestActiveSetRestoreState(t *testing.T) {
	d := quiescenceRun(t, 2)
	d.apply(diffOp{kind: opStepN, n: 500})
	d.apply(diffOp{kind: opSave})
	d.apply(diffOp{kind: opStepN, n: 100})
	d.apply(diffOp{kind: opRestore})
	if q := quietCount(d.solver()); q != 0 {
		t.Errorf("after restore: %d machines still quiet", q)
	}
	d.apply(diffOp{kind: opStepN, n: 200})
}
