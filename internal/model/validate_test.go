package model

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/darklab/mercury/internal/thermo"
	"github.com/darklab/mercury/internal/units"
)

func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name  string
		edit  func(m *Machine)
		field string
	}{
		{"NaN mass", func(m *Machine) { m.Component(NodeCPU).Mass = units.Kilograms(nan) }, "non-finite mass"},
		{"+Inf mass", func(m *Machine) { m.Component(NodeCPU).Mass = units.Kilograms(inf) }, "non-finite mass"},
		{"NaN specific heat", func(m *Machine) { m.Component(NodeCPU).SpecificHeat = units.JoulesPerKgK(nan) }, "non-finite specific heat"},
		{"NaN power base", func(m *Machine) { m.Component(NodeCPU).Power = thermo.Linear{PBase: units.Watts(nan), PMax: 31} }, "non-finite power range"},
		{"+Inf power max", func(m *Machine) { m.Component(NodeCPU).Power = thermo.Linear{PBase: 7, PMax: units.Watts(inf)} }, "non-finite power range"},
		{"NaN heat-edge k", func(m *Machine) { m.HeatEdges[0].K = units.WattsPerKelvin(nan) }, "non-finite k"},
		{"NaN fan flow", func(m *Machine) { m.FanFlow = units.CubicFeetPerMinute(nan) }, "non-finite fan flow"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := DefaultServer("machine1")
			tc.edit(m)
			err := m.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("Validate = %v, want an error naming %q", err, tc.field)
			}
			c := wrapMachine(m)
			if cerr := c.Validate(); cerr == nil || cerr.Error() != err.Error() {
				t.Errorf("Cluster.Validate = %v, want %v", cerr, err)
			}
		})
	}
}

// wrapMachine puts m alone in a room fed by one AC.
func wrapMachine(m *Machine) *Cluster {
	return &Cluster{
		Name:     "room",
		Machines: []*Machine{m},
		Sources:  []ClusterSource{{Name: NodeAC, SupplyTemp: Table1.InletTemp}},
		Sinks:    []ClusterSink{{Name: NodeClusterExhaust}},
		Edges: []ClusterEdge{
			{From: NodeAC, To: m.Name, Fraction: 1},
			{From: m.Name, To: NodeClusterExhaust, Fraction: 1},
		},
	}
}

// diffBase builds the room a differential case mutates: 0 the Table 1
// server, 1 the 4-core CMP server (each alone in a room), 2 a 2x3
// recirculating RackCluster, 3 a Table 1 server followed by a 2-core
// CMP server, whose names sit at other positions in the reused index.
func diffBase(t testing.TB, base uint8) *Cluster {
	switch base % 4 {
	case 0:
		return wrapMachine(DefaultServer("machine1"))
	case 1:
		m, err := CMPServer("machine1", 4)
		if err != nil {
			t.Fatal(err)
		}
		return wrapMachine(m)
	case 2:
		c, err := RackCluster("room", 2, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		return c
	default:
		m, err := CMPServer("machine2", 2)
		if err != nil {
			t.Fatal(err)
		}
		c := wrapMachine(DefaultServer("machine1"))
		c.Machines = append(c.Machines, m)
		c.Edges = append(c.Edges, ClusterEdge{From: NodeAC, To: m.Name, Fraction: 1}, ClusterEdge{From: m.Name, To: NodeClusterExhaust, Fraction: 1})
		return c
	}
}

// Finite value pools the mutations draw from: in and out of range,
// exact, just inside and outside the 1e-6 sum tolerance, and a zero of
// either sign.
var (
	diffFractions = []units.Fraction{0, 0.05, 0.1, 0.15, 0.25, 0.5, 0.85, 0.95, 1, 1.5, -0.5, 1e-7, 0.9999995, 0.999998}
	diffScalars   = []float64{-1, 0, 1e-9, 0.15, 0.75, 38.6, 896, math.Copysign(0, -1)}
	diffInlets    = []units.Celsius{21.6, units.AbsoluteZero, units.AbsoluteZero - 1, 1e6}
)

// The opcodes past the first 24.
const (
	opCopy      = 24 // copy machine a over the two machines after it
	opInlet     = 25 // set the inlet temperature
	opNaN       = 26 // a NaN mass, fan flow or inlet temperature
	opPiecewise = 27 // a new *thermo.Piecewise of fixed points
	numOps      = 28
)

// mutate applies the ops encoded in ops to c: each four-byte group is an
// opcode and three operands. The copy ops run first, so the others see
// runs of identical machines and may break a later machine of a run.
// Every value it writes is finite but opNaN's.
func mutate(c *Cluster, ops []byte) {
	for i := 0; i+4 <= len(ops); i += 4 {
		if ops[i]%numOps == opCopy {
			copyRun(c, int(ops[i+1]))
		}
	}
	for len(ops) >= 4 {
		op, a, b, k := ops[0], int(ops[1]), int(ops[2]), int(ops[3])
		ops = ops[4:]
		m := c.Machines[a%len(c.Machines)]
		name := func(i int) string {
			names := m.NodeNames()
			extra := []string{"ghost", "", "bad name", NodeInlet, NodeExhaust, m.Name}
			if i%(len(names)+len(extra)) < len(names) {
				return names[i%(len(names)+len(extra))]
			}
			return extra[i%(len(names)+len(extra))-len(names)]
		}
		vertex := func(i int) string {
			pool := []string{NodeAC, NodeClusterExhaust, "ghost", "", "a b", c.Machines[0].Name}
			if i%2 == 0 {
				return c.Machines[i/2%len(c.Machines)].Name
			}
			return pool[i/2%len(pool)]
		}
		frac := diffFractions[k%len(diffFractions)]
		scalar := diffScalars[k%len(diffScalars)]
		switch op % numOps {
		case 0:
			if n := len(m.Components); n > 0 {
				m.Components[b%n].Name = name(k)
			}
		case 1:
			if n := len(m.AirNodes); n > 0 {
				m.AirNodes[b%n].Name = name(k)
			}
		case 2:
			if n := len(m.AirNodes); n > 0 {
				m.AirNodes[b%n].Inlet = !m.AirNodes[b%n].Inlet
			}
		case 3:
			if n := len(m.AirNodes); n > 0 {
				m.AirNodes[b%n].Exhaust = !m.AirNodes[b%n].Exhaust
			}
		case 4:
			if n := len(m.AirEdges); n > 0 {
				m.AirEdges[b%n].From = name(k)
			}
		case 5:
			if n := len(m.AirEdges); n > 0 {
				m.AirEdges[b%n].To = name(k)
			}
		case 6:
			if n := len(m.AirEdges); n > 0 {
				m.AirEdges[b%n].Fraction = frac
			}
		case 7:
			m.AirEdges = append(m.AirEdges, AirEdge{From: name(b), To: name(k), Fraction: diffFractions[(b+k)%len(diffFractions)]})
		case 8:
			if n := len(m.AirEdges); n > 0 {
				m.AirEdges = append(m.AirEdges[:b%n], m.AirEdges[b%n+1:]...)
			}
		case 9:
			if n := len(m.HeatEdges); n > 0 {
				m.HeatEdges[b%n].A = name(k)
			}
		case 10:
			if n := len(m.HeatEdges); n > 0 {
				m.HeatEdges[b%n].B = name(k)
			}
		case 11:
			if n := len(m.HeatEdges); n > 0 {
				m.HeatEdges[b%n].K = units.WattsPerKelvin(scalar)
			}
		case 12:
			if n := len(m.Components); n > 0 {
				m.Components[b%n].Mass = units.Kilograms(scalar)
			}
		case 13:
			if n := len(m.Components); n > 0 {
				m.Components[b%n].SpecificHeat = units.JoulesPerKgK(scalar)
			}
		case 14:
			if n := len(m.AirNodes); n > 0 {
				m.AirNodes = append(m.AirNodes[:b%n], m.AirNodes[b%n+1:]...)
			}
		case 15:
			m.AirNodes = append(m.AirNodes, AirNode{Name: name(k), Inlet: b%5 == 0, Exhaust: b%5 == 1})
		case 16:
			m.Name = vertex(k)
		case 17:
			m.FanFlow = units.CubicFeetPerMinute(scalar)
		case 18:
			if n := len(c.Edges); n > 0 {
				c.Edges[b%n].From = vertex(k)
			}
		case 19:
			if n := len(c.Edges); n > 0 {
				c.Edges[b%n].To = vertex(k)
			}
		case 20:
			if n := len(c.Edges); n > 0 {
				c.Edges[b%n].Fraction = frac
			}
		case 21:
			if n := len(c.Edges); n > 0 {
				c.Edges = append(c.Edges[:b%n], c.Edges[b%n+1:]...)
			}
		case 22:
			c.Edges = append(c.Edges, ClusterEdge{From: vertex(b), To: vertex(k), Fraction: frac})
		case 23:
			if b%2 == 0 {
				c.Sources[0].Name = vertex(k)
			} else {
				c.Sinks[0].Name = vertex(k)
			}
		case opInlet:
			m.InletTemp = diffInlets[k%len(diffInlets)]
		case opNaN:
			nan := math.NaN()
			switch k % 3 {
			case 0:
				if n := len(m.Components); n > 0 {
					m.Components[b%n].Mass = units.Kilograms(nan)
				}
			case 1:
				m.FanFlow = units.CubicFeetPerMinute(nan)
			default:
				m.InletTemp = units.Celsius(nan)
			}
		case opPiecewise:
			// Equal points, a distinct pointer each time; an odd k makes
			// the power fall with utilization, an invalid range.
			powers := []units.Watts{5, 20}
			if k%2 == 1 {
				powers[0], powers[1] = 20, 5
			}
			pw, err := thermo.NewPiecewise([]units.Fraction{0, 1}, powers)
			if err != nil {
				panic(err)
			}
			if n := len(m.Components); n > 0 {
				m.Components[b%n].Power = pw
			}
		}
	}
}

// copyRun makes the two machines after machine a copies of it under
// their own names. A copy past the end is a new machine, fed by the
// first source and exhausting into the first sink.
func copyRun(c *Cluster, a int) {
	k := a % len(c.Machines)
	src := c.Machines[k]
	for j := k + 1; j <= k+2; j++ {
		if j < len(c.Machines) {
			c.Machines[j] = src.Clone(c.Machines[j].Name)
			continue
		}
		name := "copy" + strconv.Itoa(j)
		c.Machines = append(c.Machines, src.Clone(name))
		c.Edges = append(c.Edges,
			ClusterEdge{From: c.Sources[0].Name, To: name, Fraction: 1},
			ClusterEdge{From: name, To: c.Sinks[0].Name, Fraction: 1})
	}
}

// finiteMachine reports whether every constant of m is finite, the
// frozen reference's contract.
func finiteMachine(m *Machine) bool {
	vals := []float64{float64(m.FanFlow), float64(m.InletTemp)}
	for _, c := range m.Components {
		vals = append(vals, float64(c.Mass), float64(c.SpecificHeat))
		if c.Power != nil {
			vals = append(vals, float64(c.Power.Base()), float64(c.Power.Max()))
		}
	}
	for _, e := range m.HeatEdges {
		vals = append(vals, float64(e.K))
	}
	for _, e := range m.AirEdges {
		vals = append(vals, float64(e.Fraction))
	}
	for _, v := range vals {
		if !finite(v) {
			return false
		}
	}
	return true
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkAgainstReference holds every finite machine's Validate, every
// machine's AirTopoOrder, and the cluster's Validate to the frozen
// map-based validator. The cluster's Validate, which checks only the
// scalars of a machine whose body repeats the one before it, must also
// say what checking every machine in full says, finite or not, and
// ValidateRuns must say the same and record SameBody's verdicts.
func checkAgainstReference(t *testing.T, c *Cluster) {
	t.Helper()
	finite := true
	for _, m := range c.Machines {
		if !finiteMachine(m) {
			finite = false
		} else if got, want := errText(m.Validate()), errText(refMachineValidate(m)); got != want {
			t.Fatalf("machine %q Validate:\n got %s\nwant %s", m.Name, got, want)
		}
		got, gerr := m.AirTopoOrder()
		want, werr := refAirTopoOrder(m)
		if !reflect.DeepEqual(got, want) || errText(gerr) != errText(werr) {
			t.Fatalf("machine %q AirTopoOrder:\n got %q, %s\nwant %q, %s", m.Name, got, errText(gerr), want, errText(werr))
		}
	}
	got := errText(c.Validate())
	if want := errText(refClusterValidateWith(c, (*Machine).Validate)); got != want {
		t.Fatalf("cluster Validate against every machine in full:\n got %s\nwant %s", got, want)
	}
	if want := errText(refClusterValidate(c)); finite && got != want {
		t.Fatalf("cluster Validate:\n got %s\nwant %s", got, want)
	}
	sameBody := make([]bool, len(c.Machines))
	if runs := errText(c.ValidateRuns(sameBody)); runs != got {
		t.Fatalf("cluster ValidateRuns:\n got %s\nwant %s", runs, got)
	}
	for i := 1; got == "<nil>" && i < len(c.Machines); i++ {
		if want := c.Machines[i].SameBody(c.Machines[i-1]); sameBody[i] != want {
			t.Fatalf("ValidateRuns sameBody[%d] = %v, SameBody says %v", i, sameBody[i], want)
		}
	}
}

func FuzzValidateDifferential(f *testing.F) {
	for base := uint8(0); base < 4; base++ {
		f.Add(base, []byte{})
	}
	// A few hand-picked breakages: an air cycle, a duplicate node, an
	// edge into the inlet, a removed room edge, an edge out of the sink.
	f.Add(uint8(0), []byte{5, 0, 11, 13})
	f.Add(uint8(1), []byte{1, 0, 3, 0})
	f.Add(uint8(0), []byte{5, 0, 3, 8})
	f.Add(uint8(2), []byte{21, 0, 3, 0})
	f.Add(uint8(2), []byte{18, 0, 0, 3})
	// A later machine of a run of copies that differs from the one
	// before it only by a heat constant of the other zero sign, a NaN
	// mass, a renamed node, its own *thermo.Piecewise of equal points
	// (valid, then falling) or a name with a space; then one that
	// differs only by a NaN fan flow, and only by an inlet below
	// absolute zero.
	f.Add(uint8(0), []byte{opCopy, 0, 0, 0, 11, 0, 0, 1, 11, 1, 0, 1, 11, 2, 0, 7})
	f.Add(uint8(0), []byte{opCopy, 0, 0, 0, opNaN, 2, 1, 0})
	f.Add(uint8(2), []byte{1, 2, 3, 14})
	f.Add(uint8(3), []byte{opCopy, 0, 0, 0, opPiecewise, 0, 2, 0, opPiecewise, 1, 2, 0, opPiecewise, 2, 2, 1})
	f.Add(uint8(2), []byte{16, 4, 0, 9})
	f.Add(uint8(1), []byte{opCopy, 0, 0, 0, opNaN, 1, 0, 1})
	f.Add(uint8(1), []byte{opCopy, 0, 0, 0, opInlet, 2, 0, 2})
	f.Fuzz(func(t *testing.T, base uint8, ops []byte) {
		c := diffBase(t, base)
		mutate(c, ops)
		checkAgainstReference(t, c)
	})
}

// TestValidateDifferentialRandom runs the fuzz target's mutations from
// a fixed seed, so every plain test run covers a few thousand broken
// models.
func TestValidateDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 4000
	if testing.Short() {
		n = 500
	}
	outcomes := map[string]bool{}
	for i := 0; i < n; i++ {
		c := diffBase(t, uint8(rng.Intn(4)))
		ops := make([]byte, 4*(1+rng.Intn(6)))
		rng.Read(ops)
		if i%2 == 0 {
			// Half the rooms start with a run of copies.
			ops[0] = opCopy
		}
		mutate(c, ops)
		checkAgainstReference(t, c)
		outcomes[errText(c.Validate())] = true
	}
	if len(outcomes) < 50 {
		t.Errorf("mutations reached only %d distinct outcomes", len(outcomes))
	}
}

func TestClusterValidateAllocsConstant(t *testing.T) {
	allocs := func(racks int) float64 {
		c, err := RackCluster("room", racks, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10), allocs(1000)
	if small != large {
		t.Errorf("Cluster.Validate allocations: %v at 40 machines, %v at 4000; want equal", small, large)
	}
}

// chainServer builds a machine of n nodes: n/2 components, each
// heating its own air region, the regions chained inlet to exhaust.
func chainServer(name string, n int) *Machine {
	m := &Machine{Name: name, InletTemp: Table1.InletTemp, FanFlow: Table1.FanFlow}
	air := func(i int) string { return "air" + strconv.Itoa(i) }
	for i := 0; i < n/2; i++ {
		comp := "part" + strconv.Itoa(i)
		m.Components = append(m.Components, Component{Name: comp, Mass: 0.1, SpecificHeat: 896, Power: thermo.Constant(1)})
		m.AirNodes = append(m.AirNodes, AirNode{Name: air(i), Inlet: i == 0, Exhaust: i == n/2-1})
		m.HeatEdges = append(m.HeatEdges, HeatEdge{A: comp, B: air(i), K: 0.5})
		if i > 0 {
			m.AirEdges = append(m.AirEdges, AirEdge{From: air(i - 1), To: air(i), Fraction: 1})
		}
	}
	return m
}

// TestValidateMixedSizes runs one validator's scratch through machines
// that grow and shrink, and a 512-node machine's many-probe lookups.
func TestValidateMixedSizes(t *testing.T) {
	cmp, err := CMPServer("cmp", 16)
	if err != nil {
		t.Fatal(err)
	}
	c := wrapMachine(DefaultServer("small"))
	for _, m := range []*Machine{chainServer("big", 512), cmp, DefaultServer("small2")} {
		c.Machines = append(c.Machines, m)
		c.Edges = append(c.Edges, ClusterEdge{From: NodeAC, To: m.Name, Fraction: 1}, ClusterEdge{From: m.Name, To: NodeClusterExhaust, Fraction: 1})
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, c)
	// The same room with a duplicate deep in the big machine.
	big := c.Machines[1]
	big.AirNodes[200].Name = big.Components[3].Name
	checkAgainstReference(t, c)
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate node name") {
		t.Errorf("Validate = %v, want a duplicate node name", err)
	}
}
