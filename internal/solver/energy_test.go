package solver

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

// exhaustHeatFlow returns the heat the machine's exhaust air carries
// away relative to the inlet, in watts: F * (T_exhaust - T_inlet) with
// F the heat-capacity flow through the exhaust.
func exhaustHeatFlow(t *testing.T, s *Solver, machine string, temps map[string]units.Celsius) float64 {
	t.Helper()
	mi, err := s.machine(machine)
	if err != nil {
		t.Fatal(err)
	}
	m := &s.ms[mi]
	sh := m.shape
	rel := m.set.relFlow
	var out float64
	for _, x := range sh.exhaustIdx {
		F := units.AirDensity * rel[x] * m.fanM3s * float64(units.AirSpecificHeat)
		out += F * float64(temps[sh.names[x]]-temps[sh.names[sh.inletIdx]])
	}
	return out
}

func TestSteadyStateEnergyBalance(t *testing.T) {
	// First law at the fixed point: every watt dissipated inside the
	// chassis leaves through the exhaust air. This must hold for any
	// utilization, any fan speed, and any fiddled constants.
	f := func(cpuU, diskU, fanScale float64) bool {
		s := newTestSolver(t, Config{})
		cu := units.Fraction(math.Abs(cpuU)).Clamp()
		du := units.Fraction(math.Abs(diskU)).Clamp()
		s.SetUtilization("m1", model.UtilCPU, cu)
		s.SetUtilization("m1", model.UtilDisk, du)
		cfm := 20 + 60*units.Fraction(math.Abs(fanScale)).Clamp()
		if err := s.SetFanFlow("m1", units.CubicFeetPerMinute(cfm)); err != nil {
			return false
		}
		steady, err := s.SteadyState("m1")
		if err != nil {
			return false
		}
		// Power in: evaluate the models at the same utilizations.
		cpuP := 7 + 24*float64(cu)
		diskP := 9 + 5*float64(du)
		powerIn := cpuP + diskP + 40 + 4
		heatOut := exhaustHeatFlow(t, s, "m1", steady)
		return math.Abs(powerIn-heatOut) < 1e-6*powerIn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTransientEnergyBalanceConverges(t *testing.T) {
	// During a transient the exhaust carries less than the dissipated
	// power (the chassis is storing heat); as the run approaches steady
	// state the deficit vanishes.
	s := newTestSolver(t, Config{})
	s.SetUtilization("m1", model.UtilCPU, 1)
	powerIn := 84.0 // 31 + 9 + 40 + 4

	s.Run(2 * time.Minute)
	temps := mustTemps(t, s, "m1")
	early := exhaustHeatFlow(t, s, "m1", temps)
	if early >= powerIn {
		t.Errorf("early exhaust flow %v exceeds dissipation %v", early, powerIn)
	}

	s.Run(12 * time.Hour)
	temps = mustTemps(t, s, "m1")
	late := exhaustHeatFlow(t, s, "m1", temps)
	if math.Abs(late-powerIn) > 0.01 {
		t.Errorf("steady exhaust flow %v, want %v", late, powerIn)
	}
	if late <= early {
		t.Errorf("exhaust flow should grow toward dissipation: %v -> %v", early, late)
	}
}

func TestEnergyBalanceSurvivesFiddling(t *testing.T) {
	s := newTestSolver(t, Config{})
	s.SetUtilization("m1", model.UtilCPU, 0.8)
	s.SetHeatK("m1", model.NodeCPU, model.NodeCPUAir, 2.0)
	s.SetAirFraction("m1", model.NodeInlet, model.NodeDiskAir, 0.3)
	s.SetAirFraction("m1", model.NodeInlet, model.NodeVoidAir, 0.2)
	s.SetPowerScale("m1", model.NodeCPU, 0.5)
	steady, err := s.SteadyState("m1")
	if err != nil {
		t.Fatal(err)
	}
	// CPU at 80% util scaled to 50%: (7 + 24*0.8) * 0.5 = 13.1.
	powerIn := 13.1 + 9 + 40 + 4
	heatOut := exhaustHeatFlow(t, s, "m1", steady)
	if math.Abs(powerIn-heatOut) > 1e-6*powerIn {
		t.Errorf("energy balance violated after fiddling: in=%v out=%v", powerIn, heatOut)
	}
}
