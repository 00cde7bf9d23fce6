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

// AirNode returns the named air region, or nil.
func (m *Machine) AirNode(name string) *AirNode {
	for i := range m.AirNodes {
		if m.AirNodes[i].Name == name {
			return &m.AirNodes[i]
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
// positive masses and heat capacities, non-negative k constants, and a
// positive fan flow.
func (m *Machine) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("model: machine has no name")
	}
	if strings.ContainsAny(m.Name, " \t\n") {
		return fmt.Errorf("model: machine name %q contains whitespace", m.Name)
	}
	seen := map[string]bool{}
	for _, c := range m.Components {
		if err := validName(c.Name); err != nil {
			return fmt.Errorf("model: machine %s: %w", m.Name, err)
		}
		if seen[c.Name] {
			return fmt.Errorf("model: machine %s: duplicate node name %q", m.Name, c.Name)
		}
		seen[c.Name] = true
		if c.Mass <= 0 {
			return fmt.Errorf("model: machine %s: component %q has non-positive mass %v", m.Name, c.Name, c.Mass)
		}
		if c.SpecificHeat <= 0 {
			return fmt.Errorf("model: machine %s: component %q has non-positive specific heat %v", m.Name, c.Name, c.SpecificHeat)
		}
		if c.Power != nil {
			if c.Power.Base() < 0 || c.Power.Max() < c.Power.Base() {
				return fmt.Errorf("model: machine %s: component %q has invalid power range %v..%v",
					m.Name, c.Name, c.Power.Base(), c.Power.Max())
			}
		}
	}
	inlets, exhausts := 0, 0
	for _, a := range m.AirNodes {
		if err := validName(a.Name); err != nil {
			return fmt.Errorf("model: machine %s: %w", m.Name, err)
		}
		if seen[a.Name] {
			return fmt.Errorf("model: machine %s: duplicate node name %q", m.Name, a.Name)
		}
		seen[a.Name] = true
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
	if m.FanFlow <= 0 {
		return fmt.Errorf("model: machine %s: non-positive fan flow %v", m.Name, m.FanFlow)
	}
	if !m.InletTemp.Valid() {
		return fmt.Errorf("model: machine %s: invalid inlet temperature %v", m.Name, m.InletTemp)
	}

	for _, e := range m.HeatEdges {
		if !seen[e.A] || !seen[e.B] {
			return fmt.Errorf("model: machine %s: heat edge %s--%s references unknown node", m.Name, e.A, e.B)
		}
		if e.A == e.B {
			return fmt.Errorf("model: machine %s: heat edge %s--%s is a self-loop", m.Name, e.A, e.B)
		}
		if e.K < 0 {
			return fmt.Errorf("model: machine %s: heat edge %s--%s has negative k %v", m.Name, e.A, e.B, e.K)
		}
	}

	air := map[string]*AirNode{}
	for i := range m.AirNodes {
		air[m.AirNodes[i].Name] = &m.AirNodes[i]
	}
	out := map[string]float64{}
	indeg := map[string]int{}
	for _, e := range m.AirEdges {
		from, okF := air[e.From]
		to, okT := air[e.To]
		if !okF || !okT {
			return fmt.Errorf("model: machine %s: air edge %s->%s must connect air nodes", m.Name, e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("model: machine %s: air edge %s->%s is a self-loop", m.Name, e.From, e.To)
		}
		if !e.Fraction.Valid() || e.Fraction == 0 {
			return fmt.Errorf("model: machine %s: air edge %s->%s has invalid fraction %v", m.Name, e.From, e.To, float64(e.Fraction))
		}
		if to.Inlet {
			return fmt.Errorf("model: machine %s: air edge %s->%s flows into the inlet", m.Name, e.From, e.To)
		}
		if from.Exhaust {
			return fmt.Errorf("model: machine %s: air edge %s->%s flows out of an exhaust", m.Name, e.From, e.To)
		}
		out[e.From] += float64(e.Fraction)
		indeg[e.To]++
	}
	const tol = 1e-6
	for _, a := range m.AirNodes {
		sum, has := out[a.Name]
		if a.Exhaust {
			continue
		}
		if !has {
			return fmt.Errorf("model: machine %s: air node %q has no outgoing flow and is not an exhaust", m.Name, a.Name)
		}
		if sum < 1-tol || sum > 1+tol {
			return fmt.Errorf("model: machine %s: air node %q outgoing fractions sum to %.6f, want 1", m.Name, a.Name, sum)
		}
		if !a.Inlet && indeg[a.Name] == 0 {
			return fmt.Errorf("model: machine %s: air node %q has no incoming flow and is not the inlet", m.Name, a.Name)
		}
	}
	if _, err := m.AirTopoOrder(); err != nil {
		return err
	}
	return nil
}

// AirTopoOrder returns the air nodes in a topological order of the
// air-flow DAG (inlet first), or an error if the graph has a cycle.
// The solver processes air regions in this order so each region mixes
// the temperatures its upstream regions computed in the same step.
func (m *Machine) AirTopoOrder() ([]string, error) {
	indeg := map[string]int{}
	adj := map[string][]string{}
	for _, a := range m.AirNodes {
		indeg[a.Name] = 0
	}
	for _, e := range m.AirEdges {
		adj[e.From] = append(adj[e.From], e.To)
		indeg[e.To]++
	}
	// Deterministic order: seed the queue in declaration order.
	var queue []string
	for _, a := range m.AirNodes {
		if indeg[a.Name] == 0 {
			queue = append(queue, a.Name)
		}
	}
	var order []string
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, to := range adj[n] {
			indeg[to]--
			if indeg[to] == 0 {
				queue = append(queue, to)
			}
		}
	}
	if len(order) != len(m.AirNodes) {
		return nil, fmt.Errorf("model: machine %s: air-flow graph has a cycle", m.Name)
	}
	return order, nil
}

// Inlet returns the machine's inlet air node name. The machine must be
// valid.
func (m *Machine) Inlet() string {
	for _, a := range m.AirNodes {
		if a.Inlet {
			return a.Name
		}
	}
	return ""
}

// Exhausts returns the machine's exhaust air node names in declaration
// order.
func (m *Machine) Exhausts() []string {
	var names []string
	for _, a := range m.AirNodes {
		if a.Exhaust {
			names = append(names, a.Name)
		}
	}
	return names
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
