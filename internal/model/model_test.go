package model

import (
	"strings"
	"testing"

	"github.com/darklab/mercury/internal/thermo"
	"github.com/darklab/mercury/internal/units"
)

func TestDefaultServerValidates(t *testing.T) {
	m := DefaultServer("machine1")
	if err := m.Validate(); err != nil {
		t.Fatalf("DefaultServer does not validate: %v", err)
	}
}

func TestDefaultServerTable1Constants(t *testing.T) {
	m := DefaultServer("m")
	cases := []struct {
		node string
		mass units.Kilograms
		c    units.JoulesPerKgK
	}{
		{NodeDiskPlatters, 0.336, 896},
		{NodeDiskShell, 0.505, 896},
		{NodeCPU, 0.151, 896},
		{NodePowerSupply, 1.643, 896},
		{NodeMotherboard, 0.718, 1245},
	}
	for _, tc := range cases {
		c := m.Component(tc.node)
		if c == nil {
			t.Fatalf("missing component %q", tc.node)
		}
		if c.Mass != tc.mass {
			t.Errorf("%s mass = %v, want %v", tc.node, c.Mass, tc.mass)
		}
		if c.SpecificHeat != tc.c {
			t.Errorf("%s specific heat = %v, want %v", tc.node, c.SpecificHeat, tc.c)
		}
	}
	if m.InletTemp != 21.6 {
		t.Errorf("inlet temp = %v, want 21.6", m.InletTemp)
	}
	if m.FanFlow != 38.6 {
		t.Errorf("fan flow = %v, want 38.6", m.FanFlow)
	}
	cpu := m.Component(NodeCPU)
	if cpu.Power.Base() != 7 || cpu.Power.Max() != 31 {
		t.Errorf("CPU power = (%v,%v), want (7,31)", cpu.Power.Base(), cpu.Power.Max())
	}
	dp := m.Component(NodeDiskPlatters)
	if dp.Power.Base() != 9 || dp.Power.Max() != 14 {
		t.Errorf("disk power = (%v,%v), want (9,14)", dp.Power.Base(), dp.Power.Max())
	}
	ps := m.Component(NodePowerSupply)
	if ps.Power.Base() != 40 || ps.Power.Max() != 40 {
		t.Errorf("PS power = (%v,%v), want (40,40)", ps.Power.Base(), ps.Power.Max())
	}
}

func TestDefaultServerAirFractionsConserveFlow(t *testing.T) {
	// The DAG must deliver exactly the inlet flow to the exhaust.
	m := DefaultServer("m")
	order, err := m.AirTopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	flow := map[string]float64{NodeInlet: 1}
	for _, n := range order {
		for _, e := range m.AirEdges {
			if e.From == n {
				flow[e.To] += flow[n] * float64(e.Fraction)
			}
		}
	}
	if got := flow[NodeExhaust]; got < 1-1e-9 || got > 1+1e-9 {
		t.Errorf("exhaust flow = %v, want 1.0", got)
	}
}

func TestAirTopoOrderStartsAtInlet(t *testing.T) {
	m := DefaultServer("m")
	order, err := m.AirTopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != NodeInlet {
		t.Errorf("topo order starts with %q, want inlet", order[0])
	}
	// Every edge must go forward in the order.
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	for _, e := range m.AirEdges {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge %s->%s not respected by topo order", e.From, e.To)
		}
	}
}

func TestValidateCatchesCycle(t *testing.T) {
	m := DefaultServer("m")
	// disk_air_ds -> disk_air creates a 2-cycle; also breaks fraction
	// sums, so reset disk_air's outgoing to split.
	m.AirEdges = append(m.AirEdges, AirEdge{From: NodeDiskAirDS, To: NodeDiskAir, Fraction: 1})
	err := m.Validate()
	if err == nil {
		t.Fatal("cycle not caught")
	}
}

func TestValidateFractionSum(t *testing.T) {
	m := DefaultServer("m")
	for i := range m.AirEdges {
		if m.AirEdges[i].From == NodeInlet && m.AirEdges[i].To == NodeDiskAir {
			m.AirEdges[i].Fraction = 0.3 // was 0.4; inlet now sums to 0.9
		}
	}
	err := m.Validate()
	if err == nil || !strings.Contains(err.Error(), "sum") {
		t.Fatalf("bad fraction sum not caught: %v", err)
	}
}

func TestValidateRejectsBadStructures(t *testing.T) {
	type mut func(*Machine)
	cases := []struct {
		name string
		mut  mut
	}{
		{"no name", func(m *Machine) { m.Name = "" }},
		{"whitespace name", func(m *Machine) { m.Name = "m 1" }},
		{"dup component", func(m *Machine) { m.Components = append(m.Components, m.Components[0]) }},
		{"zero mass", func(m *Machine) { m.Components[0].Mass = 0 }},
		{"negative mass", func(m *Machine) { m.Components[0].Mass = -1 }},
		{"zero specific heat", func(m *Machine) { m.Components[0].SpecificHeat = 0 }},
		{"bad power range", func(m *Machine) { m.Components[0].Power = thermo.Linear{PBase: 10, PMax: 5} }},
		{"no inlet", func(m *Machine) {
			for i := range m.AirNodes {
				m.AirNodes[i].Inlet = false
			}
		}},
		{"two inlets", func(m *Machine) { m.AirNodes[1].Inlet = true }},
		{"no exhaust", func(m *Machine) {
			for i := range m.AirNodes {
				m.AirNodes[i].Exhaust = false
			}
		}},
		{"inlet is exhaust", func(m *Machine) { m.AirNodes[0].Exhaust = true }},
		{"zero fan flow", func(m *Machine) { m.FanFlow = 0 }},
		{"invalid inlet temp", func(m *Machine) { m.InletTemp = -400 }},
		{"heat edge unknown node", func(m *Machine) {
			m.HeatEdges = append(m.HeatEdges, HeatEdge{A: "ghost", B: NodeCPU, K: 1})
		}},
		{"heat edge self loop", func(m *Machine) {
			m.HeatEdges = append(m.HeatEdges, HeatEdge{A: NodeCPU, B: NodeCPU, K: 1})
		}},
		{"negative k", func(m *Machine) { m.HeatEdges[0].K = -1 }},
		{"air edge into inlet", func(m *Machine) {
			m.AirEdges = append(m.AirEdges, AirEdge{From: NodeCPUAir, To: NodeInlet, Fraction: 0.1})
		}},
		{"air edge out of exhaust", func(m *Machine) {
			m.AirEdges = append(m.AirEdges, AirEdge{From: NodeExhaust, To: NodeCPUAir, Fraction: 0.1})
		}},
		{"air edge zero fraction", func(m *Machine) { m.AirEdges[0].Fraction = 0 }},
		{"air edge fraction above one", func(m *Machine) { m.AirEdges[0].Fraction = 1.5 }},
		{"air edge unknown node", func(m *Machine) {
			m.AirEdges = append(m.AirEdges, AirEdge{From: "ghost", To: NodeCPUAir, Fraction: 0.1})
		}},
		{"air edge to component", func(m *Machine) {
			m.AirEdges = append(m.AirEdges, AirEdge{From: NodeInlet, To: NodeCPU, Fraction: 0.1})
		}},
		{"bad node name", func(m *Machine) { m.Components[0].Name = "bad name!" }},
	}
	for _, tc := range cases {
		m := DefaultServer("m")
		tc.mut(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", tc.name)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := DefaultServer("a")
	b := a.Clone("b")
	if b.Name != "b" {
		t.Errorf("clone name = %q", b.Name)
	}
	b.Components[0].Mass = 99
	b.AirEdges[0].Fraction = 0.123
	b.HeatEdges[0].K = 42
	if a.Components[0].Mass == 99 || a.AirEdges[0].Fraction == 0.123 || a.HeatEdges[0].K == 42 {
		t.Error("mutating clone affected original")
	}
	if err := b.Validate(); err == nil {
		t.Error("mutated clone should now fail validation (fraction sums)")
	}
}

func TestComponentLookup(t *testing.T) {
	m := DefaultServer("m")
	if m.Component("nope") != nil {
		t.Error("Component(nope) != nil")
	}
}

func TestNodeNamesSorted(t *testing.T) {
	m := DefaultServer("m")
	names := m.NodeNames()
	if len(names) != len(m.Components)+len(m.AirNodes) {
		t.Fatalf("NodeNames() has %d entries", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("NodeNames() not sorted: %v", names)
		}
	}
}

func TestThermalMassOfComponent(t *testing.T) {
	m := DefaultServer("m")
	cpu := m.Component(NodeCPU)
	want := units.Joules(0.151 * 896)
	if got := cpu.ThermalMass(); got != want {
		t.Errorf("CPU thermal mass = %v, want %v", got, want)
	}
}
