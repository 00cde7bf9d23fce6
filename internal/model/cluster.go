package model

import (
	"fmt"

	"github.com/darklab/mercury/internal/units"
)

// ClusterSource is an air source at the machine-room level, typically
// an air conditioner: its supply temperature is pinned (and may be
// changed at run time with fiddle to emulate a cooling failure).
type ClusterSource struct {
	// Name identifies the source, e.g. "ac".
	Name string
	// SupplyTemp is the temperature of the air the source delivers.
	SupplyTemp units.Celsius
}

// ClusterSink is an air sink at the machine-room level, typically the
// return plenum ("Cluster Exhaust" in Figure 1c).
type ClusterSink struct {
	Name string
}

// ClusterEdge is a directed air connection at the room level. From and
// To name a source, a sink, or a machine: a machine appearing as From
// contributes its exhaust air; a machine appearing as To receives the
// air at its inlet.
//
// Fraction is interpreted on both sides of the edge: on the From side
// it is the share of the origin's output carried by the edge (shares
// leaving a machine must sum to 1); on the To side the solver mixes a
// machine's inlet as the fraction-weighted average of its incoming
// edges, normalized per destination — the paper's "perfect mixing ...
// weighted average of the incoming-edge air temperatures and
// fractions".
type ClusterEdge struct {
	From, To string
	Fraction units.Fraction
}

// Cluster is a machine-room thermal model: a set of machines plus the
// room-level air-flow graph of Figure 1(c).
type Cluster struct {
	Name     string
	Machines []*Machine
	Sources  []ClusterSource
	Sinks    []ClusterSink
	Edges    []ClusterEdge
}

// Machine returns the named machine, or nil.
func (c *Cluster) Machine(name string) *Machine {
	for _, m := range c.Machines {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Source returns the named source, or nil.
func (c *Cluster) Source(name string) *ClusterSource {
	for i := range c.Sources {
		if c.Sources[i].Name == name {
			return &c.Sources[i]
		}
	}
	return nil
}

// Validate checks the cluster's invariants: valid machines with unique
// names, unique source/sink names disjoint from machine names, edges
// connecting known vertices in legal directions (sources only send,
// sinks only receive, machines both), every machine receiving at least
// one incoming edge, every machine's outgoing fractions summing to 1,
// and at least one source and one sink.
func (c *Cluster) Validate() error {
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
	// One index over every vertex: machines at [0, nm), sources at
	// [nm, ns), sinks from ns on.
	nm, ns := len(c.Machines), len(c.Machines)+len(c.Sources)
	var names nameTable
	names.reset(ns + len(c.Sinks))
	var v validator
	for i, m := range c.Machines {
		// A machine whose body equals that of the machine before it,
		// which passed, can fail only in its own scalars.
		var err error
		if i > 0 && m.SameBody(c.Machines[i-1]) {
			err = scalarErr(m)
		} else {
			err = v.machine(m)
		}
		if err != nil {
			return err
		}
		if names.put(m.Name, i) != i {
			return fmt.Errorf("model: cluster %s: duplicate vertex name %q", c.Name, m.Name)
		}
	}
	for i, s := range c.Sources {
		if err := validName(s.Name); err != nil {
			return fmt.Errorf("model: cluster %s: %w", c.Name, err)
		}
		if names.put(s.Name, nm+i) != nm+i {
			return fmt.Errorf("model: cluster %s: duplicate vertex name %q", c.Name, s.Name)
		}
		if !s.SupplyTemp.Valid() {
			return fmt.Errorf("model: cluster %s: source %q has invalid supply temperature", c.Name, s.Name)
		}
	}
	for i, s := range c.Sinks {
		if err := validName(s.Name); err != nil {
			return fmt.Errorf("model: cluster %s: %w", c.Name, err)
		}
		if names.put(s.Name, ns+i) != ns+i {
			return fmt.Errorf("model: cluster %s: duplicate vertex name %q", c.Name, s.Name)
		}
	}

	// Fraction sums into and out of each machine.
	in, out := make([]float64, nm), make([]float64, nm)
	for _, e := range c.Edges {
		f, t := names.find(e.From), names.find(e.To)
		if f < 0 || t < 0 {
			return fmt.Errorf("model: cluster %s: edge %s->%s references unknown vertex", c.Name, e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("model: cluster %s: edge %s->%s is a self-loop", c.Name, e.From, e.To)
		}
		if f >= ns {
			return fmt.Errorf("model: cluster %s: edge %s->%s flows out of a sink", c.Name, e.From, e.To)
		}
		if nm <= t && t < ns {
			return fmt.Errorf("model: cluster %s: edge %s->%s flows into a source", c.Name, e.From, e.To)
		}
		if !e.Fraction.Valid() || e.Fraction == 0 {
			return fmt.Errorf("model: cluster %s: edge %s->%s has invalid fraction %v", c.Name, e.From, e.To, float64(e.Fraction))
		}
		if f < nm {
			out[f] += float64(e.Fraction)
		}
		if t < nm {
			in[t] += float64(e.Fraction)
		}
	}
	const tol = 1e-6
	for i, m := range c.Machines {
		if in[i] == 0 {
			return fmt.Errorf("model: cluster %s: machine %q receives no air", c.Name, m.Name)
		}
		if sum := out[i]; sum < 1-tol || sum > 1+tol {
			return fmt.Errorf("model: cluster %s: machine %q outgoing fractions sum to %.6f, want 1", c.Name, m.Name, sum)
		}
	}
	return nil
}

// MachineTopoOrder returns the machines in a topological order of the
// room-level graph restricted to machine->machine (recirculation)
// edges, so the solver can propagate exhaust air to downstream inlets
// within one step. An error is returned when recirculation edges form
// a cycle; such clusters are still solvable (the solver falls back to
// previous-step exhaust temperatures) but callers that require
// same-step propagation should reject them.
func (c *Cluster) MachineTopoOrder() ([]string, error) {
	isMachine := map[string]bool{}
	for _, m := range c.Machines {
		isMachine[m.Name] = true
	}
	indeg := map[string]int{}
	adj := map[string][]string{}
	for _, m := range c.Machines {
		indeg[m.Name] = 0
	}
	for _, e := range c.Edges {
		if isMachine[e.From] && isMachine[e.To] {
			adj[e.From] = append(adj[e.From], e.To)
			indeg[e.To]++
		}
	}
	var queue, order []string
	for _, m := range c.Machines {
		if indeg[m.Name] == 0 {
			queue = append(queue, m.Name)
		}
	}
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
	if len(order) != len(c.Machines) {
		return nil, fmt.Errorf("model: cluster %s: recirculation edges form a cycle", c.Name)
	}
	return order, nil
}
