package solver

import (
	"bytes"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

// preparedSolver runs a solver into an interesting mid-experiment
// state: load, an inlet pin, a fiddled k, a throttle, a fan change,
// and an off machine.
func preparedSolver(t *testing.T) *Solver {
	t.Helper()
	s := newClusterSolver(t, 2, Config{})
	s.SetUtilization("machine1", model.UtilCPU, 0.8)
	s.SetUtilization("machine1", model.UtilDisk, 0.2)
	s.StepN(600)
	s.PinInlet("machine1", 35)
	s.SetHeatK("machine1", model.NodeCPU, model.NodeCPUAir, 1.1)
	s.SetPowerScale("machine1", model.NodeCPU, 0.8)
	s.SetFanFlow("machine1", 50)
	s.SetAirFraction("machine1", model.NodeInlet, model.NodeDiskAir, 0.35)
	s.SetAirFraction("machine1", model.NodeInlet, model.NodeVoidAir, 0.15)
	s.SetMachinePower("machine2", false)
	s.SetSourceTemperature(model.NodeAC, 23)
	s.StepN(600)
	return s
}

func TestStateRoundTripContinuesIdentically(t *testing.T) {
	orig := preparedSolver(t)
	st := orig.SaveState()

	// Serialize through JSON to prove the on-disk format carries
	// everything.
	var buf bytes.Buffer
	if err := WriteState(&buf, st); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadState(&buf)
	if err != nil {
		t.Fatal(err)
	}

	restored := newClusterSolver(t, 2, Config{})
	if err := restored.RestoreState(parsed); err != nil {
		t.Fatal(err)
	}

	if restored.Now() != orig.Now() || restored.Steps() != orig.Steps() {
		t.Errorf("time bookkeeping: %v/%d vs %v/%d",
			restored.Now(), restored.Steps(), orig.Now(), orig.Steps())
	}
	// Both continue for an hour: trajectories must match exactly.
	orig.Run(time.Hour)
	restored.Run(time.Hour)
	for _, m := range orig.Machines() {
		a, err := orig.Temperatures(m)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.Temperatures(m)
		if err != nil {
			t.Fatal(err)
		}
		for node, temp := range a {
			if b[node] != temp {
				t.Errorf("%s/%s diverged: %v vs %v", m, node, temp, b[node])
			}
		}
		ea, _ := orig.Energy(m)
		eb, _ := restored.Energy(m)
		if ea != eb {
			t.Errorf("%s energy diverged: %v vs %v", m, ea, eb)
		}
	}
	if on, _ := restored.MachineOn("machine2"); on {
		t.Error("machine2 power state lost")
	}
	if pinned, temp, _ := restored.InletPinned("machine1"); !pinned || temp != 35 {
		t.Errorf("pin lost: %v %v", pinned, temp)
	}
	if k, _ := restored.HeatK("machine1", model.NodeCPU, model.NodeCPUAir); k != 1.1 {
		t.Errorf("fiddled k lost: %v", k)
	}
	if f, _ := restored.FanFlow("machine1"); f != 50 {
		t.Errorf("fan flow lost: %v", f)
	}
	if src, _ := restored.SourceTemperature(model.NodeAC); src != 23 {
		t.Errorf("source temp lost: %v", src)
	}
}

func TestRestoreRejectsMismatchedTopology(t *testing.T) {
	orig := preparedSolver(t)
	st := orig.SaveState()

	// Wrong machine count.
	other := newClusterSolver(t, 3, Config{})
	if err := other.RestoreState(st); err != nil {
		t.Fatalf("restore into superset cluster should work machine-wise? got %v", err)
	}

	// Unknown machine in state.
	small, err := NewSingle(model.DefaultServer("solo"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := small.RestoreState(st); err == nil {
		t.Error("restore with unknown machines: want error")
	}

	// Unknown node.
	bad := orig.SaveState()
	ms := bad.Machines["machine1"]
	delete(ms.Temps, model.NodeCPU)
	ms.Temps["ghost"] = 30
	bad.Machines["machine1"] = ms
	fresh := newClusterSolver(t, 2, Config{})
	if err := fresh.RestoreState(bad); err == nil {
		t.Error("restore with unknown node: want error")
	}

	// Invalid temperature.
	bad2 := orig.SaveState()
	ms2 := bad2.Machines["machine1"]
	ms2.Temps[model.NodeCPU] = -400
	bad2.Machines["machine1"] = ms2
	if err := fresh.RestoreState(bad2); err == nil {
		t.Error("restore with invalid temperature: want error")
	}

	// Unknown source.
	bad3 := orig.SaveState()
	bad3.Sources["ghost_ac"] = 20
	if err := fresh.RestoreState(bad3); err == nil {
		t.Error("restore with unknown source: want error")
	}

	// Unknown utilization source.
	bad4 := orig.SaveState()
	ms4 := bad4.Machines["machine1"]
	ms4.Utils[model.UtilNet] = 0.5
	bad4.Machines["machine1"] = ms4
	if err := fresh.RestoreState(bad4); err == nil {
		t.Error("restore with unknown utilization source: want error")
	}
}

func TestReadStateRejectsGarbage(t *testing.T) {
	if _, err := ReadState(bytes.NewReader([]byte("not json"))); err == nil {
		t.Error("garbage input: want error")
	}
}

func TestStateUtilsClampedOnRestore(t *testing.T) {
	orig := preparedSolver(t)
	st := orig.SaveState()
	ms := st.Machines["machine1"]
	ms.Utils[model.UtilCPU] = units.Fraction(3.0)
	st.Machines["machine1"] = ms
	fresh := newClusterSolver(t, 2, Config{})
	if err := fresh.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if u, _ := fresh.Utilization("machine1", model.UtilCPU); u != 1 {
		t.Errorf("restored util = %v, want clamped 1", u)
	}
}

// TestRestoreRejectsInvalidValues holds RestoreState to the value rules
// of the fiddle operations and to the unknown-key rule of its node
// check: each case corrupts one field of a saved state, the restore
// must fail, and the solver must be left exactly as it was — the same
// saved state and the same trajectory as an untouched twin. The
// unmodified state and a WhatIf round trip must still restore cleanly.
func TestRestoreRejectsInvalidValues(t *testing.T) {
	edit := func(fn func(ms *MachineState)) func(st *State) {
		return func(st *State) {
			ms := st.Machines["machine1"]
			fn(&ms)
			st.Machines["machine1"] = ms
		}
	}
	cpuAir := edgeKey(model.NodeCPU, model.NodeCPUAir)
	inletDisk := edgeKey(model.NodeInlet, model.NodeDiskAir)
	cases := []struct {
		name    string
		corrupt func(st *State)
	}{
		{"negative heat k", edit(func(ms *MachineState) { ms.HeatKs[cpuAir] = -40 })},
		{"unknown heat edge", edit(func(ms *MachineState) { ms.HeatKs["no|such_edge"] = 1 })},
		{"reversed heat key", edit(func(ms *MachineState) { ms.HeatKs[edgeKey(model.NodeCPUAir, model.NodeCPU)] = 1 })},
		{"air fraction above 1", edit(func(ms *MachineState) { ms.AirFractions[inletDisk] = 7 })},
		{"negative air fraction", edit(func(ms *MachineState) { ms.AirFractions[inletDisk] = -0.5 })},
		{"unknown air edge", edit(func(ms *MachineState) { ms.AirFractions["inlet|nowhere"] = 0.5 })},
		{"inlet pin below absolute zero", edit(func(ms *MachineState) { ms.InletPin = -500 })},
		{"power scale above 1", edit(func(ms *MachineState) { ms.PowerScales[model.NodeCPU] = 2 })},
		{"power scale on an unknown node", edit(func(ms *MachineState) { ms.PowerScales["ghost"] = 0.5 })},
		{"power scale on an air node", edit(func(ms *MachineState) { ms.PowerScales[model.NodeCPUAir] = 0.5 })},
		{"source below absolute zero", func(st *State) { st.Sources[model.NodeAC] = -300 }},
	}
	saved := func(s *Solver) string {
		var buf bytes.Buffer
		if err := WriteState(&buf, s.SaveState()); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, twin := preparedSolver(t), preparedSolver(t)
			bad := s.SaveState()
			tc.corrupt(bad)
			before := saved(s)
			if err := s.RestoreState(bad); err == nil {
				t.Fatal("restore accepted the corrupted state")
			}
			if after := saved(s); after != before {
				t.Fatalf("rejected restore changed the solver:\n%s\nwant\n%s", after, before)
			}
			s.StepN(600)
			twin.StepN(600)
			assertBitIdentical(t, "after a rejected restore", s, twin)
		})
	}

	s := preparedSolver(t)
	st := s.SaveState()
	if err := s.RestoreState(st); err != nil {
		t.Fatalf("restore of an unmodified state: %v", err)
	}
	if err := s.WhatIf(func(w *Solver) error {
		return w.SetHeatK("machine1", model.NodeCPU, model.NodeCPUAir, 0)
	}); err != nil {
		t.Fatalf("WhatIf round trip: %v", err)
	}
	if err := s.RestoreState(s.SaveState()); err != nil {
		t.Fatalf("restore after WhatIf: %v", err)
	}
}
