package model

import (
	"fmt"
	"strings"
)

// The validator as it was before it reused scratch across machines:
// a fresh set of name-keyed maps per machine and per cluster. It is the
// oracle the differential tests hold the scratch validator to — same
// error text, same precedence, same air order — for every finite
// input. It predates the non-finite checks, so NaN and Inf constants
// are outside its contract.

// refMachineValidate is the frozen (*Machine).Validate.
func refMachineValidate(m *Machine) error {
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
	if _, err := refAirTopoOrder(m); err != nil {
		return err
	}
	return nil
}

// refAirTopoOrder is the frozen (*Machine).AirTopoOrder.
func refAirTopoOrder(m *Machine) ([]string, error) {
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

// refClusterValidate is the frozen (*Cluster).Validate.
func refClusterValidate(c *Cluster) error { return refClusterValidateWith(c, refMachineValidate) }

// refClusterValidateWith is refClusterValidate with every machine
// checked by machine. With (*Machine).Validate it checks every machine
// in full, the oracle for rooms outside the reference's finite contract.
func refClusterValidateWith(c *Cluster, machine func(*Machine) error) error {
	if c.Name == "" {
		return fmt.Errorf("model: cluster has no name")
	}
	if len(c.Machines) == 0 {
		return fmt.Errorf("model: cluster %s has no machines", c.Name)
	}
	if len(c.Sources) == 0 {
		return fmt.Errorf("model: cluster %s has no air sources", c.Name)
	}
	if len(c.Sinks) == 0 {
		return fmt.Errorf("model: cluster %s has no air sinks", c.Name)
	}
	kind := map[string]string{} // name -> "machine"|"source"|"sink"
	for _, m := range c.Machines {
		if err := machine(m); err != nil {
			return err
		}
		if _, dup := kind[m.Name]; dup {
			return fmt.Errorf("model: cluster %s: duplicate vertex name %q", c.Name, m.Name)
		}
		kind[m.Name] = "machine"
	}
	for _, s := range c.Sources {
		if err := validName(s.Name); err != nil {
			return fmt.Errorf("model: cluster %s: %w", c.Name, err)
		}
		if _, dup := kind[s.Name]; dup {
			return fmt.Errorf("model: cluster %s: duplicate vertex name %q", c.Name, s.Name)
		}
		if !s.SupplyTemp.Valid() {
			return fmt.Errorf("model: cluster %s: source %q has invalid supply temperature", c.Name, s.Name)
		}
		kind[s.Name] = "source"
	}
	for _, s := range c.Sinks {
		if err := validName(s.Name); err != nil {
			return fmt.Errorf("model: cluster %s: %w", c.Name, err)
		}
		if _, dup := kind[s.Name]; dup {
			return fmt.Errorf("model: cluster %s: duplicate vertex name %q", c.Name, s.Name)
		}
		kind[s.Name] = "sink"
	}

	in := map[string]float64{}
	out := map[string]float64{}
	for _, e := range c.Edges {
		kf, okF := kind[e.From]
		kt, okT := kind[e.To]
		if !okF || !okT {
			return fmt.Errorf("model: cluster %s: edge %s->%s references unknown vertex", c.Name, e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("model: cluster %s: edge %s->%s is a self-loop", c.Name, e.From, e.To)
		}
		if kf == "sink" {
			return fmt.Errorf("model: cluster %s: edge %s->%s flows out of a sink", c.Name, e.From, e.To)
		}
		if kt == "source" {
			return fmt.Errorf("model: cluster %s: edge %s->%s flows into a source", c.Name, e.From, e.To)
		}
		if !e.Fraction.Valid() || e.Fraction == 0 {
			return fmt.Errorf("model: cluster %s: edge %s->%s has invalid fraction %v", c.Name, e.From, e.To, float64(e.Fraction))
		}
		out[e.From] += float64(e.Fraction)
		in[e.To] += float64(e.Fraction)
	}
	const tol = 1e-6
	for _, m := range c.Machines {
		if in[m.Name] == 0 {
			return fmt.Errorf("model: cluster %s: machine %q receives no air", c.Name, m.Name)
		}
		sum := out[m.Name]
		if sum < 1-tol || sum > 1+tol {
			return fmt.Errorf("model: cluster %s: machine %q outgoing fractions sum to %.6f, want 1", c.Name, m.Name, sum)
		}
	}
	return nil
}
