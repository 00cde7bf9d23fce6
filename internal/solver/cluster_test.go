package solver

import (
	"math"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

func newClusterSolver(t *testing.T, n int, cfg Config) *Solver {
	t.Helper()
	c, err := model.DefaultCluster("room", n)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestClusterInletsFollowAC(t *testing.T) {
	s := newClusterSolver(t, 4, Config{})
	s.Step()
	for _, m := range s.Machines() {
		if inlet := mustTemp(t, s, m, model.NodeInlet); inlet != 21.6 {
			t.Errorf("%s inlet = %v, want AC supply 21.6", m, inlet)
		}
	}
	if err := s.SetSourceTemperature(model.NodeAC, 27); err != nil {
		t.Fatal(err)
	}
	s.Step()
	for _, m := range s.Machines() {
		if inlet := mustTemp(t, s, m, model.NodeInlet); inlet != 27 {
			t.Errorf("%s inlet after AC change = %v, want 27", m, inlet)
		}
	}
}

func TestClusterMachinesIndependentWithoutRecirculation(t *testing.T) {
	s := newClusterSolver(t, 4, Config{})
	// Load only machine2.
	s.SetUtilization("machine2", model.UtilCPU, 1)
	s.Run(2 * time.Hour)
	hot := mustTemp(t, s, "machine2", model.NodeCPU)
	for _, m := range []string{"machine1", "machine3", "machine4"} {
		cool := mustTemp(t, s, m, model.NodeCPU)
		if cool >= hot {
			t.Errorf("%s CPU %v >= loaded machine2 %v", m, cool, hot)
		}
		// With an ideal (non-recirculating) room, unloaded machines
		// idle at the idle-power steady state, identical across
		// machines.
		if m != "machine1" {
			continue
		}
		if other := mustTemp(t, s, "machine3", model.NodeCPU); math.Abs(cool-other) > 1e-9 {
			t.Errorf("idle machines differ: %v vs %v", cool, other)
		}
	}
}

func TestClusterPinAffectsOnlyOneMachine(t *testing.T) {
	// Figure 11's emergency: machine1 inlet to 38.6, machine3 to 35.6.
	s := newClusterSolver(t, 4, Config{})
	s.PinInlet("machine1", 38.6)
	s.PinInlet("machine3", 35.6)
	s.Run(time.Hour)
	in1 := mustTemp(t, s, "machine1", model.NodeInlet)
	in2 := mustTemp(t, s, "machine2", model.NodeInlet)
	in3 := mustTemp(t, s, "machine3", model.NodeInlet)
	if in1 != 38.6 || in3 != 35.6 {
		t.Errorf("pinned inlets = %v, %v; want 38.6, 35.6", in1, in3)
	}
	if in2 != 21.6 {
		t.Errorf("machine2 inlet = %v, want unaffected 21.6", in2)
	}
	c1 := mustTemp(t, s, "machine1", model.NodeCPU)
	c2 := mustTemp(t, s, "machine2", model.NodeCPU)
	c3 := mustTemp(t, s, "machine3", model.NodeCPU)
	if !(c1 > c3 && c3 > c2) {
		t.Errorf("want CPU(m1) > CPU(m3) > CPU(m2), got %v, %v, %v", c1, c3, c2)
	}
}

func TestRecirculationCouplesMachines(t *testing.T) {
	// machine1's exhaust partially feeds machine2: loading machine1
	// must warm machine2's inlet.
	c, err := model.DefaultCluster("room", 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Edges {
		if c.Edges[i].From == "machine1" && c.Edges[i].To == model.NodeClusterExhaust {
			c.Edges[i].Fraction = 0.5
		}
	}
	c.Edges = append(c.Edges, model.ClusterEdge{From: "machine1", To: "machine2", Fraction: 0.5})
	s, err := New(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetUtilization("machine1", model.UtilCPU, 1)
	s.SetUtilization("machine1", model.UtilDisk, 1)
	s.Run(4 * time.Hour)
	in2 := mustTemp(t, s, "machine2", model.NodeInlet)
	if in2 <= 21.6+0.5 {
		t.Errorf("machine2 inlet = %v, want warmed by machine1 exhaust", in2)
	}
	ex1, err := s.ExhaustTemperature("machine1")
	if err != nil {
		t.Fatal(err)
	}
	// Inlet2 mixes 0.5 parts AC at 21.6 (the 2-machine room splits the
	// AC evenly) with 0.5 parts of machine1's exhaust.
	want := (0.5*21.6 + 0.5*float64(ex1)) / 1.0
	if math.Abs(in2-want) > 0.2 {
		t.Errorf("machine2 inlet = %v, want mix %v", in2, want)
	}
}

func TestExhaustWarmerThanInletUnderLoad(t *testing.T) {
	s := newClusterSolver(t, 2, Config{})
	s.SetUtilization("machine1", model.UtilCPU, 1)
	s.Run(2 * time.Hour)
	ex, err := s.ExhaustTemperature("machine1")
	if err != nil {
		t.Fatal(err)
	}
	in, err := s.InletTemperature("machine1")
	if err != nil {
		t.Fatal(err)
	}
	if ex <= in {
		t.Errorf("exhaust %v should be warmer than inlet %v", ex, in)
	}
	if _, err := s.ExhaustTemperature("ghost"); err == nil {
		t.Error("unknown machine: want error")
	}
	if _, err := s.InletTemperature("ghost"); err == nil {
		t.Error("unknown machine: want error")
	}
}

func TestClusterEnergyAggregation(t *testing.T) {
	s := newClusterSolver(t, 4, Config{})
	s.StepN(10)
	var sum units.Joules
	for _, m := range s.Machines() {
		e := machineState(t, s, m).Energy
		sum += e
	}
	if total := s.TotalEnergy(); math.Abs(float64(total-sum)) > 1e-9 {
		t.Errorf("TotalEnergy %v != sum %v", total, sum)
	}
	// 4 idle machines at 60 W for 10 s.
	if math.Abs(float64(s.TotalEnergy())-2400) > 1e-6 {
		t.Errorf("TotalEnergy = %v, want 2400 J", s.TotalEnergy())
	}
}

func TestOffMachineSavesEnergy(t *testing.T) {
	s := newClusterSolver(t, 2, Config{})
	s.SetMachinePower("machine2", false)
	s.StepN(100)
	e1 := machineState(t, s, "machine1").Energy
	e2 := machineState(t, s, "machine2").Energy
	if e2 != 0 {
		t.Errorf("off machine consumed %v", e2)
	}
	if e1 != 6000 {
		t.Errorf("on machine consumed %v, want 6000 J", e1)
	}
}

func TestInvalidClusterRejectedByNew(t *testing.T) {
	c, err := model.DefaultCluster("room", 2)
	if err != nil {
		t.Fatal(err)
	}
	c.Machines[0].FanFlow = 0
	if _, err := New(c, Config{}); err == nil {
		t.Error("invalid cluster: want error from New")
	}
}
