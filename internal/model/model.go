// Package model defines the thermal model that the Mercury solver
// emulates: machines made of hardware components and air regions,
// connected by undirected heat-flow edges and directed air-flow edges
// (Figure 1 of the paper), plus cluster-level air flow between machines
// and the machine-room air conditioner.
//
// The package is purely declarative — it holds the graphs and the
// physical constants of Table 1 and validates them; package solver
// compiles a validated model into its time-stepping representation.
package model

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"

	"github.com/darklab/mercury/internal/thermo"
	"github.com/darklab/mercury/internal/units"
)

// UtilSource names the utilization stream that drives a component's
// power model: the monitoring daemon samples one value per source per
// interval (CPU, disk, network), and the solver feeds it to every
// component configured with that source.
type UtilSource string

// Utilization sources understood by monitord.
const (
	// UtilNone marks components whose power does not follow any
	// utilization stream (power supply, motherboard).
	UtilNone UtilSource = ""
	// UtilCPU follows processor utilization.
	UtilCPU UtilSource = "cpu"
	// UtilDisk follows disk utilization.
	UtilDisk UtilSource = "disk"
	// UtilNet follows network-interface utilization.
	UtilNet UtilSource = "net"
)

// UtilSample is one utilization stream's value for one sampling
// interval — the datum a procfs sampler produces, a monitord report
// carries (wire.UtilEntry is this type) and the solver consumes, so a
// report crosses every layer without being re-keyed or copied.
type UtilSample struct {
	Source UtilSource
	Util   units.Fraction
}

// Component is a hardware part with thermal mass and a power model:
// a vertex of the heat-flow graph (Figure 1a).
type Component struct {
	// Name identifies the component within its machine, e.g. "cpu",
	// "disk_platters". Names are case-sensitive and must be unique
	// across components and air nodes of a machine.
	Name string
	// Mass is the component's mass. Must be positive.
	Mass units.Kilograms
	// SpecificHeat is the component's specific heat capacity. Must be
	// positive.
	SpecificHeat units.JoulesPerKgK
	// Power maps utilization to power draw. Use thermo.Constant for
	// parts with utilization-independent draw, or nil for parts that
	// dissipate no power themselves (e.g. the disk shell).
	Power thermo.PowerModel
	// Util selects which utilization stream drives Power. Ignored when
	// Power is nil or constant.
	Util UtilSource
}

// ThermalMass returns the energy required to warm the component 1 K.
func (c Component) ThermalMass() units.Joules {
	return thermo.ThermalMass(c.Mass, c.SpecificHeat)
}

// AirNode is an air region inside a machine: a vertex of the air-flow
// graph (Figure 1b) and, through heat edges, of the heat-flow graph.
type AirNode struct {
	// Name identifies the air region, e.g. "inlet", "cpu_air".
	Name string
	// Inlet marks the machine's air intake: its temperature is pinned
	// to the machine inlet temperature (which the cluster graph or
	// fiddle may change) and it receives the full fan flow.
	Inlet bool
	// Exhaust marks the machine's air outlet: its temperature is
	// visible to the cluster-level graph.
	Exhaust bool
}

// HeatEdge is an undirected heat-flow connection between two nodes
// (components or air regions) with the lumped transfer constant k of
// Equation 2.
type HeatEdge struct {
	A, B string
	K    units.WattsPerKelvin
}

// AirEdge is a directed air-flow connection: Fraction of the air
// leaving From flows into To.
type AirEdge struct {
	From, To string
	Fraction units.Fraction
}

// Machine is a single server's thermal model: Figure 1(a) and 1(b)
// plus the constants of Table 1.
type Machine struct {
	// Name identifies the machine within a cluster, e.g. "machine1".
	Name string
	// Components are the heat-flow vertices with thermal mass.
	Components []Component
	// AirNodes are the air regions.
	AirNodes []AirNode
	// HeatEdges connect components and air regions.
	HeatEdges []HeatEdge
	// AirEdges connect air regions, inlet to exhaust.
	AirEdges []AirEdge
	// InletTemp is the machine's inlet air temperature when the machine
	// is not embedded in a cluster graph (Table 1: 21.6 C).
	InletTemp units.Celsius
	// FanFlow is the volumetric flow the fan pulls through the inlet
	// (Table 1: 38.6 cfm).
	FanFlow units.CubicFeetPerMinute
}

// Component returns the named component, or nil.
func (m *Machine) Component(name string) *Component {
	for i := range m.Components {
		if m.Components[i].Name == name {
			return &m.Components[i]
		}
	}
	return nil
}

// NodeNames returns the sorted names of all nodes (components and air
// regions) in the machine.
func (m *Machine) NodeNames() []string {
	names := make([]string, 0, len(m.Components)+len(m.AirNodes))
	for _, c := range m.Components {
		names = append(names, c.Name)
	}
	for _, a := range m.AirNodes {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return names
}

// Validate checks the machine's structural and physical invariants:
// unique names, edges referencing existing nodes, exactly one inlet,
// at least one exhaust, an acyclic air graph reaching every non-inlet
// air node, per-node outgoing fractions summing to at most 1 (and
// exactly 1 for nodes that have any outgoing edge, within tolerance),
// finite positive masses and heat capacities, finite power ranges,
// finite non-negative k constants, and a finite positive fan flow.
func (m *Machine) Validate() error {
	var v validator
	return v.machine(m)
}

// machine checks m as (*Machine).Validate documents; every check runs
// in the order its error takes precedence.
func (v *validator) machine(m *Machine) error {
	if err := nameErr(m); err != nil {
		return err
	}
	nc := len(m.Components)
	v.names.reset(nc + len(m.AirNodes))
	for i, c := range m.Components {
		if err := validName(c.Name); err != nil {
			return fmt.Errorf("model: machine %s: %w", m.Name, err)
		}
		if v.names.put(c.Name, i) != i {
			return fmt.Errorf("model: machine %s: duplicate node name %q", m.Name, c.Name)
		}
		if !finite(float64(c.Mass)) {
			return fmt.Errorf("model: machine %s: component %q has non-finite mass %v", m.Name, c.Name, c.Mass)
		}
		if c.Mass <= 0 {
			return fmt.Errorf("model: machine %s: component %q has non-positive mass %v", m.Name, c.Name, c.Mass)
		}
		if !finite(float64(c.SpecificHeat)) {
			return fmt.Errorf("model: machine %s: component %q has non-finite specific heat %v", m.Name, c.Name, c.SpecificHeat)
		}
		if c.SpecificHeat <= 0 {
			return fmt.Errorf("model: machine %s: component %q has non-positive specific heat %v", m.Name, c.Name, c.SpecificHeat)
		}
		if c.Power != nil {
			lo, hi := c.Power.Base(), c.Power.Max()
			if !finite(float64(lo)) || !finite(float64(hi)) {
				return fmt.Errorf("model: machine %s: component %q has non-finite power range %v..%v", m.Name, c.Name, lo, hi)
			}
			if lo < 0 || hi < lo {
				return fmt.Errorf("model: machine %s: component %q has invalid power range %v..%v", m.Name, c.Name, lo, hi)
			}
		}
	}
	inlets, exhausts := 0, 0
	for i, a := range m.AirNodes {
		if err := validName(a.Name); err != nil {
			return fmt.Errorf("model: machine %s: %w", m.Name, err)
		}
		if v.names.put(a.Name, nc+i) != nc+i {
			return fmt.Errorf("model: machine %s: duplicate node name %q", m.Name, a.Name)
		}
		if a.Inlet {
			inlets++
		}
		if a.Exhaust {
			exhausts++
		}
		if a.Inlet && a.Exhaust {
			return fmt.Errorf("model: machine %s: air node %q is both inlet and exhaust", m.Name, a.Name)
		}
	}
	if inlets != 1 {
		return fmt.Errorf("model: machine %s: need exactly 1 inlet air node, have %d", m.Name, inlets)
	}
	if exhausts < 1 {
		return fmt.Errorf("model: machine %s: need at least 1 exhaust air node", m.Name)
	}
	if err := flowErr(m); err != nil {
		return err
	}

	for _, e := range m.HeatEdges {
		if v.names.find(e.A) < 0 || v.names.find(e.B) < 0 {
			return fmt.Errorf("model: machine %s: heat edge %s--%s references unknown node", m.Name, e.A, e.B)
		}
		if e.A == e.B {
			return fmt.Errorf("model: machine %s: heat edge %s--%s is a self-loop", m.Name, e.A, e.B)
		}
		if !finite(float64(e.K)) {
			return fmt.Errorf("model: machine %s: heat edge %s--%s has non-finite k %v", m.Name, e.A, e.B, e.K)
		}
		if e.K < 0 {
			return fmt.Errorf("model: machine %s: heat edge %s--%s has negative k %v", m.Name, e.A, e.B, e.K)
		}
	}

	na := len(m.AirNodes)
	v.out = zeroed(v.out, na)
	v.has = zeroed(v.has, na)
	v.from, v.to = slices.Grow(v.from[:0], len(m.AirEdges)), slices.Grow(v.to[:0], len(m.AirEdges))
	for _, e := range m.AirEdges {
		// Components sit below nc, so only air nodes land at 0 or above.
		f, t := v.names.find(e.From)-nc, v.names.find(e.To)-nc
		if f < 0 || t < 0 {
			return fmt.Errorf("model: machine %s: air edge %s->%s must connect air nodes", m.Name, e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("model: machine %s: air edge %s->%s is a self-loop", m.Name, e.From, e.To)
		}
		if !e.Fraction.Valid() || e.Fraction == 0 {
			return fmt.Errorf("model: machine %s: air edge %s->%s has invalid fraction %v", m.Name, e.From, e.To, float64(e.Fraction))
		}
		if m.AirNodes[t].Inlet {
			return fmt.Errorf("model: machine %s: air edge %s->%s flows into the inlet", m.Name, e.From, e.To)
		}
		if m.AirNodes[f].Exhaust {
			return fmt.Errorf("model: machine %s: air edge %s->%s flows out of an exhaust", m.Name, e.From, e.To)
		}
		v.out[f] += float64(e.Fraction)
		v.has[f] = true
		v.from = append(v.from, int32(f))
		v.to = append(v.to, int32(t))
	}
	v.seeds = zeroed(v.seeds, na)
	for i := range v.seeds {
		v.seeds[i] = int32(i)
	}
	v.link(na)
	const tol = 1e-6
	for i, a := range m.AirNodes {
		if a.Exhaust {
			continue
		}
		if !v.has[i] {
			return fmt.Errorf("model: machine %s: air node %q has no outgoing flow and is not an exhaust", m.Name, a.Name)
		}
		if sum := v.out[i]; sum < 1-tol || sum > 1+tol {
			return fmt.Errorf("model: machine %s: air node %q outgoing fractions sum to %.6f, want 1", m.Name, a.Name, sum)
		}
		if !a.Inlet && v.indeg[i] == 0 {
			return fmt.Errorf("model: machine %s: air node %q has no incoming flow and is not the inlet", m.Name, a.Name)
		}
	}
	if !v.topo() {
		return errAirCycle(m)
	}
	return nil
}

// scalarErr runs the checks of validator.machine that m's body does not
// decide — its name, fan flow and inlet temperature — in that method's
// order. It is the whole check of a machine whose body equals that of
// a machine that passed.
func scalarErr(m *Machine) error {
	if err := nameErr(m); err != nil {
		return err
	}
	return flowErr(m)
}

// nameErr checks the machine's name, validator.machine's first check.
func nameErr(m *Machine) error {
	if m.Name == "" {
		return fmt.Errorf("model: machine has no name")
	}
	if strings.ContainsAny(m.Name, " \t\n") {
		return fmt.Errorf("model: machine name %q contains whitespace", m.Name)
	}
	return nil
}

// flowErr checks the fan flow and inlet temperature, which
// validator.machine checks after the nodes and before the edges.
func flowErr(m *Machine) error {
	if !finite(float64(m.FanFlow)) {
		return fmt.Errorf("model: machine %s: non-finite fan flow %v", m.Name, m.FanFlow)
	}
	if m.FanFlow <= 0 {
		return fmt.Errorf("model: machine %s: non-positive fan flow %v", m.Name, m.FanFlow)
	}
	if !m.InletTemp.Valid() {
		return fmt.Errorf("model: machine %s: invalid inlet temperature %v", m.Name, m.InletTemp)
	}
	return nil
}

// SameBody reports whether m and o have element-wise equal components,
// air nodes, heat edges and air edges: names, utilization sources and
// flags by ==, every float by its bits (so -0 and +0, or two NaN
// payloads, never match), and power models by == when their dynamic
// value is comparable, as the solver keys them; a model that is not
// comparable never matches. The machines' names, inlet temperatures
// and fan flows are not part of the body.
//
// A room replicates one server description, so a machine's body
// usually equals the one before it; Cluster.Validate and solver.New
// then reuse what they derived from that machine.
func (m *Machine) SameBody(o *Machine) bool {
	if len(m.Components) != len(o.Components) || len(m.AirNodes) != len(o.AirNodes) ||
		len(m.HeatEdges) != len(o.HeatEdges) || len(m.AirEdges) != len(o.AirEdges) {
		return false
	}
	for i := range m.Components {
		a, b := &m.Components[i], &o.Components[i]
		if a.Name != b.Name || a.Util != b.Util || !sameBits(float64(a.Mass), float64(b.Mass)) ||
			!sameBits(float64(a.SpecificHeat), float64(b.SpecificHeat)) || !sameModel(a.Power, b.Power) {
			return false
		}
	}
	for i := range m.AirNodes {
		if m.AirNodes[i] != o.AirNodes[i] {
			return false
		}
	}
	for i := range m.HeatEdges {
		a, b := &m.HeatEdges[i], &o.HeatEdges[i]
		if a.A != b.A || a.B != b.B || !sameBits(float64(a.K), float64(b.K)) {
			return false
		}
	}
	for i := range m.AirEdges {
		a, b := &m.AirEdges[i], &o.AirEdges[i]
		if a.From != b.From || a.To != b.To || !sameBits(float64(a.Fraction), float64(b.Fraction)) {
			return false
		}
	}
	return true
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameModel reports whether a and b are the same power model: both nil,
// or == with a comparable dynamic value. Checking a alone suffices: ==
// panics only where both hold one non-comparable type.
func sameModel(a, b thermo.PowerModel) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return reflect.ValueOf(a).Comparable() && a == b
}

// AirTopoOrder returns the air nodes in a topological order of the
// air-flow DAG (inlet first), or an error if the graph has a cycle.
// The solver processes air regions in this order so each region mixes
// the temperatures its upstream regions computed in the same step.
func (m *Machine) AirTopoOrder() ([]string, error) {
	var v validator
	return v.airTopoOrder(m)
}

// airTopoOrder runs the same Kahn pass on any machine, valid or not.
// Every name an air node or air edge mentions gets an index, duplicates
// and unknown endpoints included, so the order and the cycle verdict
// are those of a pass keyed by name.
func (v *validator) airTopoOrder(m *Machine) ([]string, error) {
	v.names.reset(len(m.AirNodes) + 2*len(m.AirEdges))
	v.ids = slices.Grow(v.ids[:0], len(m.AirNodes))
	v.seeds = slices.Grow(v.seeds[:0], len(m.AirNodes))
	v.from, v.to = slices.Grow(v.from[:0], len(m.AirEdges)), slices.Grow(v.to[:0], len(m.AirEdges))
	for _, a := range m.AirNodes {
		v.seeds = append(v.seeds, v.id(a.Name))
	}
	for _, e := range m.AirEdges {
		v.from = append(v.from, v.id(e.From))
		v.to = append(v.to, v.id(e.To))
	}
	v.link(len(v.ids))
	if !v.topo() {
		return nil, errAirCycle(m)
	}
	if len(v.queue) == 0 {
		return nil, nil
	}
	order := make([]string, len(v.queue))
	for i, n := range v.queue {
		order[i] = v.ids[n]
	}
	return order, nil
}

// Clone returns a deep copy of the machine with the given name.
// Cloning lets one description stamp out the identical servers of a
// cluster ("replicating these traces allows Mercury to emulate large
// cluster installations").
func (m *Machine) Clone(name string) *Machine {
	c := &Machine{
		Name:       name,
		Components: append([]Component(nil), m.Components...),
		AirNodes:   append([]AirNode(nil), m.AirNodes...),
		HeatEdges:  append([]HeatEdge(nil), m.HeatEdges...),
		AirEdges:   append([]AirEdge(nil), m.AirEdges...),
		InletTemp:  m.InletTemp,
		FanFlow:    m.FanFlow,
	}
	return c
}

func validName(name string) error {
	if name == "" {
		return fmt.Errorf("empty node name")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
		default:
			return fmt.Errorf("node name %q contains invalid character %q", name, r)
		}
	}
	return nil
}
