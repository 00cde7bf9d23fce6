package solver

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

// The tests in this file hold the kernel to properties of the physics
// rather than to an earlier kernel: the step of one machine must not
// depend on where the room lays it out, so reordering the machines
// permutes every output, and identical machines fed identical inputs
// stay identical.

// physicsRoom is a room for TestRoomPhysicsRandom: its cluster and a
// class per machine. Machines of one class are identical and are fed
// identical inputs, so they must stay bit-identical.
type physicsRoom struct {
	name  string
	c     *model.Cluster
	class []int
}

func physicsRooms(t *testing.T) []physicsRoom {
	t.Helper()
	rack, err := model.RackCluster("room", 3, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := mixedRoom(24)
	if err != nil {
		t.Fatal(err)
	}
	distinct, err := model.DefaultCluster("room", 14)
	if err != nil {
		t.Fatal(err)
	}
	var rooms []physicsRoom
	// A machine's rack height decides its inlet chain.
	r := physicsRoom{name: "rack", c: rack}
	for i := range rack.Machines {
		r.class = append(r.class, i%5)
	}
	rooms = append(rooms, r)
	// Shapes alternate; a class is a third of one shape's machines, so
	// its members sit in different lanes.
	r = physicsRoom{name: "mixed", c: mixed}
	for i := range mixed.Machines {
		r.class = append(r.class, 3*(i%2)+(i/2)%3)
	}
	rooms = append(rooms, r)
	// Seven classes of two, each with its own fan flow: no two machines
	// of one block share a coefficient set.
	r = physicsRoom{name: "distinct", c: distinct}
	for i, m := range distinct.Machines {
		r.class = append(r.class, i%7)
		m.FanFlow = model.Table1.FanFlow * units.CubicFeetPerMinute(1+float64(i%7)/10)
	}
	rooms = append(rooms, r)
	return rooms
}

// permuted is c with its machines in a random order; edges, sources and
// sinks are c's.
func permuted(rng *rand.Rand, c *model.Cluster) *model.Cluster {
	p := *c
	p.Machines = append([]*model.Machine(nil), c.Machines...)
	rng.Shuffle(len(p.Machines), func(i, j int) { p.Machines[i], p.Machines[j] = p.Machines[j], p.Machines[i] })
	return &p
}

// applyPhysicsOp performs op on s, whose Machines() positions are pos.
func applyPhysicsOp(s *Solver, pos map[string]int, op diffOp) error {
	m := op.machine
	switch op.kind {
	case opStep:
		s.Step()
	case opStepN, opSettle:
		s.StepN(op.n)
	case opUtil:
		e := op.entries[0]
		return s.SetUtilization(m, e.Source, e.Util)
	case opApply:
		s.ApplyUtilization(pos[m], op.entries)
	case opNodeTemp:
		return s.SetNodeTemperature(m, op.a, units.Celsius(op.v))
	case opPin:
		return s.PinInlet(m, units.Celsius(op.v))
	case opUnpin:
		return s.UnpinInlet(m)
	case opSource:
		return s.SetSourceTemperature(op.a, units.Celsius(op.v))
	case opHeatK:
		return s.SetHeatK(m, op.a, op.b, units.WattsPerKelvin(op.v))
	case opAirFrac:
		return s.SetAirFraction(m, op.a, op.b, units.Fraction(op.v))
	case opFan:
		return s.SetFanFlow(m, units.CubicFeetPerMinute(op.v))
	case opScale:
		return s.SetPowerScale(m, op.a, units.Fraction(op.v))
	case opPower:
		return s.SetMachinePower(m, op.on)
	default:
		return fmt.Errorf("op kind %d is not a physics op", op.kind)
	}
	return nil
}

// sameMachine reports the first output of machine a in st that differs
// from machine b's in su, bit for bit, or "".
func sameMachine(st *State, a string, su *State, b string) string {
	x, y := st.Machines[a], su.Machines[b]
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	for node, v := range x.Temps {
		if w, ok := y.Temps[node]; !ok || bits(float64(v)) != bits(float64(w)) {
			return fmt.Sprintf("%s = %v against %v", node, v, w)
		}
	}
	if bits(float64(x.Energy)) != bits(float64(y.Energy)) {
		return fmt.Sprintf("energy = %v against %v", x.Energy, y.Energy)
	}
	if bits(float64(x.ExhaustTemp)) != bits(float64(y.ExhaustTemp)) {
		return fmt.Sprintf("exhaust = %v against %v", x.ExhaustTemp, y.ExhaustTemp)
	}
	return ""
}

// TestInletOrder: step 0 enters a cycle at its first machine in list
// order, even when a machine below the cycle is listed first, and then
// mixes every machine after its upstream machines. (TestRoomPhysicsRandom
// checks an acyclic room at step 0 in any order.)
func TestInletOrder(t *testing.T) {
	// Listed m4, m3, m2, m1: m2 and m3 draw from each other, m4 from m3,
	// and m3 from m1.
	c, err := model.DefaultCluster("room", 4)
	if err != nil {
		t.Fatal(err)
	}
	slices.Reverse(c.Machines)
	// machine4 alone exhausts only to the room; the others' exhausts
	// are split.
	edges := c.Edges[:0]
	for _, e := range c.Edges {
		if e.To == model.NodeClusterExhaust && e.From != "machine4" {
			if e.From == "machine3" {
				continue
			}
			e.Fraction = 0.5
		}
		edges = append(edges, e)
	}
	c.Edges = append(edges,
		model.ClusterEdge{From: "machine2", To: "machine3", Fraction: 0.5},
		model.ClusterEdge{From: "machine3", To: "machine2", Fraction: 0.5},
		model.ClusterEdge{From: "machine3", To: "machine4", Fraction: 0.5},
		model.ClusterEdge{From: "machine1", To: "machine3", Fraction: 0.5})
	s, err := New(c, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, mi := range inletOrder(s.ms) {
		got = append(got, s.ms[mi].name)
	}
	if want := []string{"machine1", "machine3", "machine4", "machine2"}; !slices.Equal(got, want) {
		t.Errorf("order %v, want %v", got, want)
	}
}

// TestRoomPhysicsRandom drives each room and a copy of it with its
// machines shuffled through one seeded random sequence of utilization
// writes, fiddles and steps, each op applied to every machine of one
// class, and checks two properties before the first step and after
// every step:
//
//   - permutation: every machine's temperatures, energy and exhaust in
//     the shuffled room equal, bit for bit, the same machine's in the
//     room as built, though the machines step in other blocks and lanes;
//   - replication: the machines of one class are bit-identical, in
//     whatever lane they step.
func TestRoomPhysicsRandom(t *testing.T) {
	for _, room := range physicsRooms(t) {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed=%d", room.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				base, err := New(room.c, Config{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				shuffled, err := New(permuted(rng, room.c), Config{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				solvers := []*Solver{base, shuffled}
				pos := make([]map[string]int, len(solvers))
				for i, s := range solvers {
					pos[i] = map[string]int{}
					for k, name := range s.Machines() {
						pos[i][name] = k
					}
				}
				members := map[int][]string{}
				classOf := map[string]int{}
				for i, m := range room.c.Machines {
					members[room.class[i]] = append(members[room.class[i]], m.Name)
					classOf[m.Name] = room.class[i]
				}
				check := func(label string) {
					t.Helper()
					st, su := base.SaveState(), shuffled.SaveState()
					for _, m := range room.c.Machines {
						if diff := sameMachine(st, m.Name, su, m.Name); diff != "" {
							t.Fatalf("%s: permutation: %s %s", label, m.Name, diff)
						}
					}
					for _, ms := range members {
						for _, m := range ms[1:] {
							if diff := sameMachine(st, m, st, ms[0]); diff != "" {
								t.Fatalf("%s: replication: %s %s (%s)", label, m, diff, ms[0])
							}
						}
					}
					if a, b := base.LastStepDelta(), shuffled.LastStepDelta(); math.Float64bits(float64(a)) != math.Float64bits(float64(b)) {
						t.Fatalf("%s: LastStepDelta %v, shuffled %v", label, a, b)
					}
				}
				check("step 0")
				const ops = 300
				for i := 0; i < ops; i++ {
					op := genDiffOp(rng, room.c, true)
					if i == ops/2 {
						// Long enough for most machines to reach their exact
						// fixed point, so quiet and stepping machines share
						// blocks for the rest of the run.
						op = diffOp{kind: opSettle, n: 20000}
					}
					targets := []string{op.machine}
					switch op.kind {
					case opStep, opStepN, opSettle, opSource:
					default:
						targets = members[classOf[op.machine]]
					}
					for _, m := range targets {
						op.machine = m
						for k, s := range solvers {
							if err := applyPhysicsOp(s, pos[k], op); err != nil {
								t.Fatalf("%v: %v", op, err)
							}
						}
					}
					switch op.kind {
					case opStep, opStepN, opSettle:
						check(fmt.Sprintf("op %d %v", i, op))
					}
				}
			})
		}
	}
}

// TestQuietLanesMatchReference holds the active set to the frozen
// reference, which steps every machine every tick, where quiet machines
// step beside busy ones: one busy machine among three quiet ones of its
// shape; a quiet machine held at exactly 0 °C (powered off, inlet
// pinned at 0, every node forced to 0 and one to -0) beside a busy one;
// and a shape whose machine count leaves a tail short of four. Every
// tick is compared bit for bit for 200 ticks.
func TestQuietLanesMatchReference(t *testing.T) {
	c, err := mixedRoom(11) // six DefaultServers, five CMP servers
	if err != nil {
		t.Fatal(err)
	}
	name := func(i int) string { return c.Machines[i].Name }
	var load []diffOp
	for i := range c.Machines {
		src := model.UtilCPU
		if i%2 == 1 {
			src = model.CoreUtil(0)
		}
		load = append(load, diffOp{kind: opUtil, machine: name(i),
			entries: []model.UtilSample{{Source: src, Util: units.Fraction(i%4) / 4}}})
	}
	d := newDiffRun(t, c, Config{Workers: 1}, 1, load...)
	ticks := func() {
		for k := 0; k < 200; k++ {
			d.apply(diffOp{kind: opStep})
		}
	}

	// One busy machine among quiet ones of its shape.
	d.apply(diffOp{kind: opQuiesce})
	d.apply(diffOp{kind: opUtil, machine: name(2), entries: cpuUtil(0.95)})
	ticks()

	// A quiet machine at exactly 0 °C beside a busy one.
	zero := c.Machines[4]
	d.apply(diffOp{kind: opPower, machine: zero.Name, on: false})
	d.apply(diffOp{kind: opPin, machine: zero.Name, v: 0})
	for _, comp := range zero.Components {
		d.apply(diffOp{kind: opNodeTemp, machine: zero.Name, a: comp.Name, v: 0})
	}
	for _, air := range zero.AirNodes {
		d.apply(diffOp{kind: opNodeTemp, machine: zero.Name, a: air.Name, v: 0})
	}
	d.apply(diffOp{kind: opNodeTemp, machine: zero.Name, a: zero.Components[0].Name, v: math.Copysign(0, -1)})
	d.apply(diffOp{kind: opQuiesce})
	if q := quietCount(d.solver()); q != len(c.Machines) {
		t.Fatalf("%d of %d machines quiet after the settle", q, len(c.Machines))
	}
	d.apply(diffOp{kind: opUtil, machine: name(6), entries: cpuUtil(0.3)})
	ticks()

	// The tail: the last CMP server busy, the rest quiet.
	d.apply(diffOp{kind: opQuiesce})
	d.apply(diffOp{kind: opUtil, machine: name(9), entries: []model.UtilSample{{Source: model.CoreUtil(0), Util: 0.8}}})
	ticks()
}
