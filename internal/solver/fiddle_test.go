package solver

import (
	"math"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

func TestSetHeatK(t *testing.T) {
	s := newTestSolver(t, Config{})
	key := edgeKey(model.NodeCPU, model.NodeCPUAir)
	if k := machineState(t, s, "m1").HeatKs[key]; k != 0.75 {
		t.Fatalf("k = %v, want 0.75", k)
	}
	// Reverse direction resolves the same undirected edge.
	if err := s.SetHeatK("m1", model.NodeCPUAir, model.NodeCPU, 1.5); err != nil {
		t.Fatal(err)
	}
	if k := machineState(t, s, "m1").HeatKs[key]; k != 1.5 {
		t.Errorf("after set, HeatK = %v, want 1.5", k)
	}
	if err := s.SetHeatK("m1", model.NodeCPU, model.NodeDiskAir, 1); err == nil {
		t.Error("nonexistent edge: want error")
	}
	if err := s.SetHeatK("m1", model.NodeCPU, model.NodeCPUAir, -1); err == nil {
		t.Error("negative k: want error")
	}
	if err := s.SetHeatK("m1", "ghost", model.NodeCPUAir, 1); err == nil {
		t.Error("unknown node: want error")
	}
}

func TestHigherKCoolsComponent(t *testing.T) {
	steady := func(k float64) float64 {
		s := newTestSolver(t, Config{})
		s.SetUtilization("m1", model.UtilCPU, 1)
		if err := s.SetHeatK("m1", model.NodeCPU, model.NodeCPUAir, units.WattsPerKelvin(k)); err != nil {
			t.Fatal(err)
		}
		s.Run(8 * time.Hour)
		return mustTemp(t, s, "m1", model.NodeCPU)
	}
	if weak, strong := steady(0.75), steady(3.0); strong >= weak {
		t.Errorf("better heat sink should run cooler: k=0.75 -> %v, k=3.0 -> %v", weak, strong)
	}
}

func TestSetSourceTemperature(t *testing.T) {
	s := newTestSolver(t, Config{})
	if got := s.SaveState().Sources["room"]; got != 21.6 {
		t.Fatalf("source temperature = %v, want 21.6", got)
	}
	if err := s.SetSourceTemperature("room", 30); err != nil {
		t.Fatal(err)
	}
	s.Step()
	if inlet := mustTemp(t, s, "m1", model.NodeInlet); inlet != 30 {
		t.Errorf("inlet after source change = %v, want 30", inlet)
	}
	if err := s.SetSourceTemperature("ghost", 30); err == nil {
		t.Error("unknown source: want error")
	}
	if err := s.SetSourceTemperature("room", -400); err == nil {
		t.Error("invalid temperature: want error")
	}
}

func TestPinOverridesSource(t *testing.T) {
	s := newTestSolver(t, Config{})
	s.PinInlet("m1", 35)
	s.SetSourceTemperature("room", 10)
	s.Step()
	if inlet := mustTemp(t, s, "m1", model.NodeInlet); inlet != 35 {
		t.Errorf("pinned inlet = %v, want 35 (pin wins over source)", inlet)
	}
	s.UnpinInlet("m1")
	s.Step()
	if inlet := mustTemp(t, s, "m1", model.NodeInlet); inlet != 10 {
		t.Errorf("unpinned inlet = %v, want 10", inlet)
	}
}

func TestSetFanFlow(t *testing.T) {
	s := newTestSolver(t, Config{})
	flow, err := s.FanFlow("m1")
	if err != nil || flow != 38.6 {
		t.Fatalf("FanFlow = %v, %v", flow, err)
	}
	if err := s.SetFanFlow("m1", 0); err == nil {
		t.Error("zero fan flow: want error")
	}
	if err := s.SetFanFlow("m1", 77.2); err != nil {
		t.Fatal(err)
	}
	if flow, _ = s.FanFlow("m1"); flow != 77.2 {
		t.Errorf("FanFlow after set = %v", flow)
	}
}

func TestFasterFanCoolsAir(t *testing.T) {
	steady := func(cfm float64) float64 {
		s := newTestSolver(t, Config{})
		s.SetUtilization("m1", model.UtilCPU, 1)
		s.SetUtilization("m1", model.UtilDisk, 1)
		if err := s.SetFanFlow("m1", units.CubicFeetPerMinute(cfm)); err != nil {
			t.Fatal(err)
		}
		s.Run(8 * time.Hour)
		return mustTemp(t, s, "m1", model.NodeCPUAir)
	}
	slow, fast := steady(20), steady(80)
	if fast >= slow {
		t.Errorf("faster fan should cool the air: 20cfm -> %v, 80cfm -> %v", slow, fast)
	}
}

func TestSetPowerScaleThrottles(t *testing.T) {
	steady := func(scale float64) float64 {
		s := newTestSolver(t, Config{})
		s.SetUtilization("m1", model.UtilCPU, 1)
		if err := s.SetPowerScale("m1", model.NodeCPU, units.Fraction(scale)); err != nil {
			t.Fatal(err)
		}
		s.Run(8 * time.Hour)
		return mustTemp(t, s, "m1", model.NodeCPU)
	}
	full, half := steady(1), steady(0.5)
	if half >= full {
		t.Errorf("throttled CPU should run cooler: full=%v half=%v", full, half)
	}
	s := newTestSolver(t, Config{})
	if err := s.SetPowerScale("m1", model.NodeCPUAir, 0.5); err == nil {
		t.Error("power scale on air node: want error")
	}
	if err := s.SetPowerScale("m1", model.NodeCPU, 1.5); err == nil {
		t.Error("scale > 1: want error")
	}
	if err := s.SetPowerScale("m1", "ghost", 0.5); err == nil {
		t.Error("unknown node: want error")
	}
}

func TestSetAirFraction(t *testing.T) {
	s := newTestSolver(t, Config{})
	s.SetUtilization("m1", model.UtilDisk, 1)
	s.Run(4 * time.Hour)
	base := mustTemp(t, s, "m1", model.NodeDiskAir)

	// Starve the disk of airflow: 0.4 -> 0.1 of inlet air, the
	// remainder to the void. (Fractions must keep summing to 1.)
	if err := s.SetAirFraction("m1", model.NodeInlet, model.NodeDiskAir, 0.1); err != nil {
		t.Fatal(err)
	}
	if err := s.SetAirFraction("m1", model.NodeInlet, model.NodeVoidAir, 0.4); err != nil {
		t.Fatal(err)
	}
	s.Run(4 * time.Hour)
	starved := mustTemp(t, s, "m1", model.NodeDiskAir)
	if starved <= base {
		t.Errorf("starving airflow should heat disk air: %v -> %v", base, starved)
	}

	if err := s.SetAirFraction("m1", model.NodeInlet, "ghost", 0.5); err == nil {
		t.Error("unknown edge: want error")
	}
	if err := s.SetAirFraction("m1", model.NodeInlet, model.NodeDiskAir, 1.5); err == nil {
		t.Error("invalid fraction: want error")
	}
}

func TestFiddleUnknownMachine(t *testing.T) {
	s := newTestSolver(t, Config{})
	if err := s.PinInlet("ghost", 30); err == nil {
		t.Error("PinInlet unknown machine: want error")
	}
	if err := s.UnpinInlet("ghost"); err == nil {
		t.Error("UnpinInlet unknown machine: want error")
	}
	if err := s.SetMachinePower("ghost", false); err == nil {
		t.Error("SetMachinePower unknown machine: want error")
	}
	if err := s.SetFanFlow("ghost", 10); err == nil {
		t.Error("SetFanFlow unknown machine: want error")
	}
	if _, err := s.FanFlow("ghost"); err == nil {
		t.Error("FanFlow unknown machine: want error")
	}
	if err := s.SetPowerScale("ghost", model.NodeCPU, 0.5); err == nil {
		t.Error("SetPowerScale unknown machine: want error")
	}
	if err := s.SetAirFraction("ghost", model.NodeInlet, model.NodeDiskAir, 0.4); err == nil {
		t.Error("SetAirFraction unknown machine: want error")
	}
	if err := s.SetHeatK("ghost", model.NodeCPU, model.NodeCPUAir, 1); err == nil {
		t.Error("SetHeatK unknown machine: want error")
	}
	if err := s.PinInlet("m1", units.Celsius(math.Inf(1))); err == nil {
		t.Error("PinInlet infinite temp: want error")
	}
}
