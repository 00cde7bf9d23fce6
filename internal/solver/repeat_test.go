package solver

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/thermo"
	"github.com/darklab/mercury/internal/units"
)

// New gives a machine whose body and fan flow repeat the machine before
// it that machine's shape and set (room.place). These tests hold that
// reuse to interning every machine by value.

// TestRepeatedServerInternsOneShapeAndSet: a room of one repeated
// server compiles one shape and one set, bound by every machine.
func TestRepeatedServerInternsOneShapeAndSet(t *testing.T) {
	for _, r := range []struct {
		name  string
		build func() (*model.Cluster, error)
	}{
		{"rack/500x40", func() (*model.Cluster, error) { return model.RackCluster("room", 500, 40, nil) }},
		{"default/1000", func() (*model.Cluster, error) { return model.DefaultCluster("room", 1000) }},
	} {
		t.Run(r.name, func(t *testing.T) {
			c, err := r.build()
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(c, Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			shapes := map[*kernelShape]bool{}
			for mi := range s.ms {
				shapes[s.ms[mi].shape] = true
			}
			if len(shapes) != 1 || len(s.sets.sets) != 1 {
				t.Fatalf("%d shapes and %d sets, want 1 of each", len(shapes), len(s.sets.sets))
			}
			for _, set := range s.sets.sets {
				if int(set.refs) != len(s.ms) {
					t.Errorf("the set holds %d references for %d machines", set.refs, len(s.ms))
				}
			}
		})
	}
}

// keyedSets counts room c's coefficient sets as keying every machine by
// value does: its structure, and the bits of its fan flow in m^3/s, heat
// constants, air fractions and 1/(m*c), with power models told apart by
// == where their value is comparable and each other one a set of its
// own.
func keyedSets(c *model.Cluster) int {
	ids := map[thermo.PowerModel]int{}
	next := 0
	modelID := func(pm thermo.PowerModel) int {
		if pm != nil && !reflect.ValueOf(pm).Comparable() {
			next++
			return next
		}
		if _, ok := ids[pm]; !ok {
			next++
			ids[pm] = next
		}
		return ids[pm]
	}
	bits := func(x float64) uint64 { return math.Float64bits(x) }
	keys := map[string]bool{}
	for _, m := range c.Machines {
		var k strings.Builder
		fmt.Fprintf(&k, "%x|", bits(m.FanFlow.CubicMetersPerSecond()))
		for _, p := range m.Components {
			fmt.Fprintf(&k, "%q %q %x %d|", p.Name, p.Util, bits(1/float64(p.ThermalMass())), modelID(p.Power))
		}
		for _, a := range m.AirNodes {
			fmt.Fprintf(&k, "%q %t %t|", a.Name, a.Inlet, a.Exhaust)
		}
		for _, e := range m.HeatEdges {
			fmt.Fprintf(&k, "%q %q %x|", e.A, e.B, bits(float64(e.K)))
		}
		for _, e := range m.AirEdges {
			fmt.Fprintf(&k, "%q %q %x|", e.From, e.To, bits(float64(e.Fraction)))
		}
		keys[k.String()] = true
	}
	return len(keys)
}

// TestBrokenRunsMatchReference breaks a run of identical servers with a
// machine that differs from its neighbours only where a careless
// comparison would call it equal — a heat constant of the other zero
// sign, a fan flow one ulp away, a power model at another pointer with
// equal points — and steps the room beside the frozen reference for 200
// ticks. Temperatures, energy, exhaust, inlet and power match bit for
// bit after every tick, SaveState matches at the end, and the room
// interns as many sets as keying every machine does.
func TestBrokenRunsMatchReference(t *testing.T) {
	curve := func() thermo.PowerModel {
		pw, err := thermo.NewPiecewise([]units.Fraction{0, 0.5, 1}, []units.Watts{7, 22, 31})
		if err != nil {
			t.Fatal(err)
		}
		return pw
	}
	shared := curve()
	const odd = 5 // the machine that breaks the run
	for _, v := range []struct {
		name string
		all  func(m *model.Machine)
		odd  func(m *model.Machine)
	}{
		{"negative-zero-k",
			func(m *model.Machine) { m.HeatEdges[5].K = 0 },
			func(m *model.Machine) { m.HeatEdges[5].K = units.WattsPerKelvin(math.Copysign(0, -1)) }},
		{"fan-flow-bits",
			func(m *model.Machine) {},
			func(m *model.Machine) {
				m.FanFlow = units.CubicFeetPerMinute(math.Nextafter(float64(m.FanFlow), math.Inf(1)))
			}},
		{"power-model-pointer",
			func(m *model.Machine) { m.Component(model.NodeCPU).Power = shared },
			func(m *model.Machine) { m.Component(model.NodeCPU).Power = curve() }},
	} {
		t.Run(v.name, func(t *testing.T) {
			c, err := model.RackCluster("room", 2, 6, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range c.Machines {
				v.all(m)
			}
			v.odd(c.Machines[odd])
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
			d := newDiffRun(t, c, Config{Workers: 1}, 1)
			for i, m := range c.Machines {
				d.apply(diffOp{kind: opUtil, machine: m.Name, entries: []model.UtilSample{
					{Source: model.UtilCPU, Util: units.Fraction(float64(i+1) / float64(len(c.Machines)+1))},
				}})
			}
			for tick := 0; tick < 200; tick++ {
				d.apply(diffOp{kind: opStep})
			}
			var got, want bytes.Buffer
			if err := WriteState(&got, d.solver().SaveState()); err != nil {
				t.Fatal(err)
			}
			if err := WriteState(&want, d.ref.saveState()); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Error("SaveState differs from the reference's")
			}
			s := d.solver()
			if n, keyed := len(s.sets.sets), keyedSets(c); n != keyed || n != 2 {
				t.Errorf("%d sets, keying every machine gives %d; want 2", n, keyed)
			}
			refs := 0
			for _, set := range s.sets.sets {
				refs += int(set.refs)
			}
			if refs != len(s.ms) {
				t.Errorf("sets hold %d references for %d machines", refs, len(s.ms))
			}
			if s.ms[odd].set == s.ms[odd-1].set || s.ms[odd+1].set != s.ms[odd-1].set {
				t.Error("the odd machine shares its predecessor's set, or its successor does not rejoin the run's")
			}
		})
	}
}
