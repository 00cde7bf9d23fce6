package solver

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

func newTestSolver(t *testing.T, cfg Config) *Solver {
	t.Helper()
	s, err := NewSingle(model.DefaultServer("m1"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustTemp(t *testing.T, s *Solver, machine, node string) float64 {
	t.Helper()
	c, err := s.Temperature(machine, node)
	if err != nil {
		t.Fatal(err)
	}
	return float64(c)
}

// passiveServer is a server whose components draw no power, for pure
// heat-flow/air-flow tests.
func passiveServer(name string) *model.Machine {
	m := model.DefaultServer(name)
	for i := range m.Components {
		m.Components[i].Power = nil
		m.Components[i].Util = model.UtilNone
	}
	return m
}

func TestMachinesStartAtInlet(t *testing.T) {
	s := newTestSolver(t, Config{})
	for _, node := range []string{model.NodeCPU, model.NodeDiskPlatters, model.NodeCPUAir, model.NodeExhaust} {
		if got := mustTemp(t, s, "m1", node); got != 21.6 {
			t.Errorf("initial %s = %v, want 21.6", node, got)
		}
	}
}

func TestPassiveEquilibriumIsStable(t *testing.T) {
	// A powerless machine whose every node starts at the inlet
	// temperature must stay there forever (conservation of energy).
	s, err := NewSingle(passiveServer("m1"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.StepN(5000)
	for _, node := range []string{model.NodeCPU, model.NodeDiskPlatters, model.NodeMotherboard, model.NodeCPUAir, model.NodeExhaust} {
		if got := mustTemp(t, s, "m1", node); math.Abs(got-21.6) > 1e-9 {
			t.Errorf("passive equilibrium drifted: %s = %v", node, got)
		}
	}
}

func TestHeatingUnderLoad(t *testing.T) {
	s := newTestSolver(t, Config{})
	if err := s.SetUtilization("m1", model.UtilCPU, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.SetUtilization("m1", model.UtilDisk, 1); err != nil {
		t.Fatal(err)
	}
	prev := mustTemp(t, s, "m1", model.NodeCPU)
	for i := 0; i < 50; i++ {
		s.StepN(10)
		cur := mustTemp(t, s, "m1", model.NodeCPU)
		if cur < prev-1e-9 {
			t.Fatalf("CPU temperature decreased while fully loaded: %v -> %v at step %d", prev, cur, i*10)
		}
		prev = cur
	}
	if prev <= 21.6 {
		t.Errorf("CPU did not heat above inlet: %v", prev)
	}
}

func TestSteadyStateOrdering(t *testing.T) {
	s := newTestSolver(t, Config{})
	s.SetUtilization("m1", model.UtilCPU, 1)
	s.SetUtilization("m1", model.UtilDisk, 1)
	s.Run(8 * time.Hour) // long past all time constants
	cpu := mustTemp(t, s, "m1", model.NodeCPU)
	cpuAir := mustTemp(t, s, "m1", model.NodeCPUAir)
	inlet := mustTemp(t, s, "m1", model.NodeInlet)
	platters := mustTemp(t, s, "m1", model.NodeDiskPlatters)
	shell := mustTemp(t, s, "m1", model.NodeDiskShell)
	diskAir := mustTemp(t, s, "m1", model.NodeDiskAir)
	if !(cpu > cpuAir && cpuAir > inlet) {
		t.Errorf("want CPU > CPU air > inlet, got %v > %v > %v", cpu, cpuAir, inlet)
	}
	if !(platters > shell && shell > diskAir && diskAir > inlet) {
		t.Errorf("want platters > shell > disk air > inlet, got %v > %v > %v > %v",
			platters, shell, diskAir, inlet)
	}
	// The steady state should be hot but physically sane for a 31 W
	// CPU with a modest heat sink.
	if cpu < 40 || cpu > 120 {
		t.Errorf("steady CPU = %v, outside plausible 40..120", cpu)
	}
}

func TestSteadyStateReached(t *testing.T) {
	s := newTestSolver(t, Config{})
	s.SetUtilization("m1", model.UtilCPU, 0.5)
	s.Run(8 * time.Hour)
	before := mustTemp(t, s, "m1", model.NodeCPU)
	s.Run(time.Hour)
	after := mustTemp(t, s, "m1", model.NodeCPU)
	if math.Abs(after-before) > 1e-6 {
		t.Errorf("not at steady state: %v -> %v", before, after)
	}
}

func TestSteadyStateMonotoneInUtilization(t *testing.T) {
	steady := func(u units.Fraction) float64 {
		s := newTestSolver(t, Config{})
		s.SetUtilization("m1", model.UtilCPU, u)
		s.Run(8 * time.Hour)
		return mustTemp(t, s, "m1", model.NodeCPU)
	}
	t0, t50, t100 := steady(0), steady(0.5), steady(1)
	if !(t0 < t50 && t50 < t100) {
		t.Errorf("steady temps not increasing in utilization: %v, %v, %v", t0, t50, t100)
	}
}

func TestEnergyAccounting(t *testing.T) {
	s := newTestSolver(t, Config{})
	// Idle power: CPU 7 + disk 9 + PS 40 + MB 4 = 60 W.
	s.StepN(100)
	e := machineState(t, s, "m1").Energy
	if math.Abs(float64(e)-6000) > 1e-6 {
		t.Errorf("idle energy after 100s = %v, want 6000 J", e)
	}
	p, err := s.Power("m1")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(p)-60) > 1e-9 {
		t.Errorf("idle power = %v, want 60 W", p)
	}
	// Full CPU adds 24 W.
	s.SetUtilization("m1", model.UtilCPU, 1)
	s.StepN(100)
	p, _ = s.Power("m1")
	if math.Abs(float64(p)-84) > 1e-9 {
		t.Errorf("loaded power = %v, want 84 W", p)
	}
	if got := s.TotalEnergy(); math.Abs(float64(got)-(6000+8400)) > 1e-6 {
		t.Errorf("total energy = %v, want 14400 J", got)
	}
}

func TestInletPinRaisesTemperatures(t *testing.T) {
	s := newTestSolver(t, Config{})
	s.SetUtilization("m1", model.UtilCPU, 0.7)
	s.Run(2 * time.Hour)
	base := mustTemp(t, s, "m1", model.NodeCPU)

	if err := s.PinInlet("m1", 38.6); err != nil {
		t.Fatal(err)
	}
	if ms := machineState(t, s, "m1"); !ms.InletPinned || ms.InletPin != 38.6 {
		t.Fatalf("inlet pin = %v %v, want 38.6", ms.InletPinned, ms.InletPin)
	}
	s.Run(2 * time.Hour)
	hot := mustTemp(t, s, "m1", model.NodeCPU)
	if hot <= base+10 {
		t.Errorf("emergency did not heat CPU enough: %v -> %v", base, hot)
	}
	// The steady-state shift should be close to the inlet shift (17 C).
	if hot-base > 25 {
		t.Errorf("emergency overheated CPU: shift %v for a 17 C inlet change", hot-base)
	}

	if err := s.UnpinInlet("m1"); err != nil {
		t.Fatal(err)
	}
	s.Run(2 * time.Hour)
	cooled := mustTemp(t, s, "m1", model.NodeCPU)
	if math.Abs(cooled-base) > 0.5 {
		t.Errorf("after unpin CPU = %v, want to return near %v", cooled, base)
	}
}

func TestMachineOffCoolsDown(t *testing.T) {
	s := newTestSolver(t, Config{})
	s.SetUtilization("m1", model.UtilCPU, 1)
	s.Run(2 * time.Hour)
	hot := mustTemp(t, s, "m1", model.NodeCPU)

	if err := s.SetMachinePower("m1", false); err != nil {
		t.Fatal(err)
	}
	if machineState(t, s, "m1").On {
		t.Fatal("machine still on after SetMachinePower(false)")
	}
	s.Run(10 * time.Minute)
	cooler := mustTemp(t, s, "m1", model.NodeCPU)
	// Range assertions, not just ordering: a NaN from numerical
	// instability must fail loudly (it once hid behind a bare
	// comparison here).
	if math.IsNaN(cooler) || !(cooler < hot-5) || cooler < 21.6-1e-6 {
		t.Errorf("off machine did not cool sanely: %v -> %v", hot, cooler)
	}
	p, _ := s.Power("m1")
	if p != 0 {
		t.Errorf("off machine draws %v", p)
	}
	s.Run(12 * time.Hour)
	cold := mustTemp(t, s, "m1", model.NodeCPU)
	if !(math.Abs(cold-21.6) <= 0.5) { // NaN-proof form
		t.Errorf("off machine steady temp = %v, want near inlet 21.6", cold)
	}
	// Every node must be finite and near the inlet after a long
	// powered-off soak: the air traversal must stay stable at
	// natural-draft flow.
	for node, temp := range mustTemps(t, s, "m1") {
		if !(math.Abs(float64(temp)-21.6) <= 0.5) {
			t.Errorf("off machine node %s = %v, want near 21.6", node, temp)
		}
	}

	// Power back on: heats again.
	s.SetMachinePower("m1", true)
	s.Run(time.Hour)
	if reheated := mustTemp(t, s, "m1", model.NodeCPU); reheated <= cold+5 {
		t.Errorf("machine did not reheat after power-on: %v", reheated)
	}
}

func TestAirMixingConvexity(t *testing.T) {
	// With no component power, every air temperature must stay inside
	// the convex hull of the initial temperatures and the inlet.
	s, err := NewSingle(passiveServer("m1"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for node := range mustTemps(t, s, "m1") {
		if err := s.SetNodeTemperature("m1", node, 45); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		s.Step()
		temps := machineState(t, s, "m1").Temps
		for node, temp := range temps {
			if float64(temp) < 21.6-1e-9 || float64(temp) > 45+1e-9 {
				t.Fatalf("step %d: %s = %v escaped [21.6, 45]", i, node, temp)
			}
		}
	}
	// And everything eventually approaches the inlet temperature.
	s.Run(24 * time.Hour)
	for node, temp := range mustTemps(t, s, "m1") {
		if math.Abs(float64(temp)-21.6) > 0.2 {
			t.Errorf("%s = %v, want near 21.6 after cooldown", node, temp)
		}
	}
}

func mustTemps(t *testing.T, s *Solver, machine string) map[string]units.Celsius {
	t.Helper()
	return machineState(t, s, machine).Temps
}

// machineState is machine m's slice of s.SaveState(): its node
// temperatures, power state, inlet pin, energy and fiddled constants.
func machineState(t testing.TB, s *Solver, m string) MachineState {
	t.Helper()
	ms, ok := s.SaveState().Machines[m]
	if !ok {
		t.Fatalf("no machine %q", m)
	}
	return ms
}

// Power is the machine's total draw during the most recent step: the
// sum of its components' draws, 0 when the machine is off. A write
// leaves the draws to the next step, so the stored draws are those the
// machine's last executed step used. Only tests read it, against the
// reference kernel and the layout.
func (s *Solver) Power(machine string) (units.Watts, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mi, err := s.machine(machine)
	if err != nil {
		return 0, err
	}
	rows, l := s.drawsOf(mi)
	var w float64
	for i := range rows {
		w += rows[i][l]
	}
	return units.Watts(w), nil
}

// InletTemperature is the machine's effective inlet temperature for
// the current step (pin, or room-level mix). Only tests read it,
// against the reference kernel and the layout.
func (s *Solver) InletTemperature(machine string) (units.Celsius, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mi, err := s.machine(machine)
	if err != nil {
		return 0, err
	}
	return units.Celsius(s.inlet[mi]), nil
}

func TestDeterminism(t *testing.T) {
	run := func() map[string]units.Celsius {
		s := newTestSolver(t, Config{})
		s.SetUtilization("m1", model.UtilCPU, 0.73)
		s.SetUtilization("m1", model.UtilDisk, 0.21)
		s.StepN(500)
		s.PinInlet("m1", 30)
		s.StepN(500)
		return mustTemps(t, s, "m1")
	}
	a, b := run(), run()
	for node, temp := range a {
		if b[node] != temp {
			t.Errorf("non-deterministic: %s = %v vs %v", node, temp, b[node])
		}
	}
}

func TestSetNodeTemperature(t *testing.T) {
	s := newTestSolver(t, Config{})
	if err := s.SetNodeTemperature("m1", model.NodeCPU, 60); err != nil {
		t.Fatal(err)
	}
	if got := mustTemp(t, s, "m1", model.NodeCPU); got != 60 {
		t.Errorf("forced CPU temp = %v, want 60", got)
	}
	// Physics takes over afterwards: the 60 C CPU cools toward air.
	s.Run(time.Hour)
	if got := mustTemp(t, s, "m1", model.NodeCPU); got > 45 {
		t.Errorf("forced hot CPU did not relax: %v", got)
	}
	if err := s.SetNodeTemperature("m1", "ghost", 60); err == nil {
		t.Error("unknown node: want error")
	}
	if err := s.SetNodeTemperature("m1", model.NodeCPU, -400); err == nil {
		t.Error("sub-absolute-zero: want error")
	}
}

func TestUnknownLookups(t *testing.T) {
	s := newTestSolver(t, Config{})
	if _, err := s.Temperature("ghost", model.NodeCPU); err == nil {
		t.Error("unknown machine: want error")
	}
	if _, err := s.Temperature("m1", "ghost"); err == nil {
		t.Error("unknown node: want error")
	}
	if err := s.SetUtilization("ghost", model.UtilCPU, 1); err == nil {
		t.Error("unknown machine: want error")
	}
	if err := s.SetUtilization("m1", model.UtilNet, 1); err == nil {
		t.Error("unconfigured utilization source: want error")
	}
	if _, err := s.Utilization("m1", model.UtilNet); err == nil {
		t.Error("unconfigured utilization source: want error")
	}
	var unk *ErrUnknown
	_, err := s.Temperature("ghost", model.NodeCPU)
	if !errorsAs(err, &unk) {
		t.Errorf("error type = %T, want *ErrUnknown", err)
	}
}

func errorsAs(err error, target **ErrUnknown) bool {
	e, ok := err.(*ErrUnknown)
	if ok {
		*target = e
	}
	return ok
}

func TestUtilizationClampedProperty(t *testing.T) {
	s := newTestSolver(t, Config{})
	f := func(u float64) bool {
		if err := s.SetUtilization("m1", model.UtilCPU, units.Fraction(u)); err != nil {
			return false
		}
		got, err := s.Utilization("m1", model.UtilCPU)
		if err != nil {
			return false
		}
		s.Step()
		temp := mustTemp(t, s, "m1", model.NodeCPU)
		return got.Valid() && !math.IsNaN(temp) && !math.IsInf(temp, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStepBookkeeping(t *testing.T) {
	s := newTestSolver(t, Config{Step: 500 * time.Millisecond})
	if s.StepSize() != 500*time.Millisecond {
		t.Errorf("StepSize = %v", s.StepSize())
	}
	s.StepN(4)
	if s.Now() != 2*time.Second {
		t.Errorf("Now = %v, want 2s", s.Now())
	}
	if s.SaveState().Steps != 4 {
		t.Errorf("Steps = %v, want 4", s.SaveState().Steps)
	}
	s.Run(3 * time.Second)
	if s.Now() != 5*time.Second {
		t.Errorf("Now after Run = %v, want 5s", s.Now())
	}
}

func TestSmallerStepsConverge(t *testing.T) {
	// Halving the step should barely change the 1-hour trajectory:
	// the discretization is stable at 1 s for these time constants.
	run := func(step time.Duration) float64 {
		s, err := NewSingle(model.DefaultServer("m1"), Config{Step: step})
		if err != nil {
			t.Fatal(err)
		}
		s.SetUtilization("m1", model.UtilCPU, 1)
		s.Run(time.Hour)
		return mustTemp(t, s, "m1", model.NodeCPU)
	}
	coarse := run(time.Second)
	fine := run(100 * time.Millisecond)
	if math.Abs(coarse-fine) > 0.5 {
		t.Errorf("step-size sensitivity too high: 1s=%v 0.1s=%v", coarse, fine)
	}
}

func TestNodesAndMachines(t *testing.T) {
	s := newTestSolver(t, Config{})
	ms := s.Machines()
	if len(ms) != 1 || ms[0] != "m1" {
		t.Errorf("Machines = %v", ms)
	}
	nodes, err := s.Nodes("m1")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 14 {
		t.Errorf("Nodes count = %d, want 14", len(nodes))
	}
	if _, err := s.Nodes("ghost"); err == nil {
		t.Error("unknown machine: want error")
	}
}

func TestSnapshot(t *testing.T) {
	s := newTestSolver(t, Config{})
	s.SetUtilization("m1", model.UtilCPU, 1)
	s.StepN(100)
	snap := s.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot machines = %d", len(snap))
	}
	if len(snap["m1"]) != 14 {
		t.Errorf("snapshot nodes = %d, want 14", len(snap["m1"]))
	}
	direct := mustTemp(t, s, "m1", model.NodeCPU)
	if float64(snap["m1"][model.NodeCPU]) != direct {
		t.Errorf("snapshot CPU = %v, direct = %v", snap["m1"][model.NodeCPU], direct)
	}
}
