package solver

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

// State is a complete snapshot of a solver's mutable state: node
// temperatures, utilizations, power/fan/pin settings, fiddled
// constants, and time bookkeeping. Together with the (immutable) model
// description it allows checkpoint/restore of long experiments and
// bit-exact continuation across processes. It serializes to JSON.
type State struct {
	Now      time.Duration            `json:"now_ns"`
	Steps    uint64                   `json:"steps"`
	Sources  map[string]units.Celsius `json:"sources"`
	Machines map[string]MachineState  `json:"machines"`
}

// MachineState is one machine's slice of a State.
type MachineState struct {
	On           bool                                `json:"on"`
	Temps        map[string]units.Celsius            `json:"temps"`
	Utils        map[model.UtilSource]units.Fraction `json:"utils"`
	InletPinned  bool                                `json:"inlet_pinned"`
	InletPin     units.Celsius                       `json:"inlet_pin,omitempty"`
	FanFlow      units.CubicFeetPerMinute            `json:"fan_flow"`
	Energy       units.Joules                        `json:"energy"`
	ExhaustTemp  units.Celsius                       `json:"exhaust_temp"`
	PowerScales  map[string]units.Fraction           `json:"power_scales,omitempty"`
	HeatKs       map[string]units.WattsPerKelvin     `json:"heat_ks"`
	AirFractions map[string]units.Fraction           `json:"air_fractions"`
}

// edgeKey builds the stable map key for an edge between two node
// names.
func edgeKey(a, b string) string { return a + "|" + b }

// SaveState captures the solver's current state.
func (s *Solver) SaveState() *State {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &State{
		Now:      s.now,
		Steps:    s.steps,
		Sources:  map[string]units.Celsius{},
		Machines: map[string]MachineState{},
	}
	for _, src := range s.sources {
		st.Sources[src.name] = units.Celsius(src.supply)
	}
	for mi := range s.ms {
		m := &s.ms[mi]
		sh := m.shape
		ms := MachineState{
			On:           m.on,
			Temps:        s.tempMap(mi),
			Utils:        map[model.UtilSource]units.Fraction{},
			FanFlow:      m.nomCFM,
			Energy:       units.Joules(s.energy[mi]),
			ExhaustTemp:  units.Celsius(s.exhaust[mi]),
			HeatKs:       map[string]units.WattsPerKelvin{},
			AirFractions: map[string]units.Fraction{},
		}
		for i, v := range s.utilsOf(mi) {
			ms.Utils[sh.utilKeys[i]] = units.Fraction(v)
		}
		if m.pinned {
			ms.InletPinned = true
			ms.InletPin = units.Celsius(m.pin)
		}
		for i, scale := range s.scalesOf(mi) {
			if scale != 1 {
				if ms.PowerScales == nil {
					ms.PowerScales = map[string]units.Fraction{}
				}
				ms.PowerScales[sh.names[sh.compNode[i]]] = units.Fraction(scale)
			}
		}
		for i, k := range m.set.heatK {
			ms.HeatKs[sh.heatKeys[i]] = units.WattsPerKelvin(k)
		}
		for i, f := range m.set.airFrac {
			ms.AirFractions[sh.airKeys[i]] = units.Fraction(f)
		}
		st.Machines[m.name] = ms
	}
	return st
}

// RestoreState applies a snapshot to a solver compiled from the same
// model topology: every machine, node, edge, and utilization source in
// the state must exist in the solver, and every value must pass the
// rule the matching fiddle operation applies. On success the solver
// continues exactly where the snapshot left off; on error it is left
// untouched.
func (s *Solver) RestoreState(st *State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Validate everything first so a bad state leaves the solver intact.
	for name, temp := range st.Sources {
		if _, ok := s.srcIdx[name]; !ok {
			return fmt.Errorf("solver: restore: unknown source %q", name)
		}
		if !temp.Valid() {
			return fmt.Errorf("solver: restore: invalid temperature %v for source %q", temp, name)
		}
	}
	for mname, ms := range st.Machines {
		ref, ok := s.byName[mname]
		if !ok {
			return fmt.Errorf("solver: restore: unknown machine %q", mname)
		}
		if err := validateMachineState(ref.shape, ms); err != nil {
			return fmt.Errorf("solver: restore: machine %q: %w", mname, err)
		}
	}

	s.now = st.Now
	s.steps = st.Steps
	for name, temp := range st.Sources {
		s.sources[s.srcIdx[name]].supply = float64(temp)
	}
	for mname, ms := range st.Machines {
		mi := int(s.byName[mname].mi)
		m := &s.ms[mi]
		sh := m.shape
		m.on = ms.On
		rows, l := s.tempsOf(mi)
		for node, temp := range ms.Temps {
			rows[sh.index[node]][l] = float64(temp)
		}
		utils := s.utilsOf(mi)
		for src, u := range ms.Utils {
			utils[sh.utilPos[src]] = float64(u.Clamp())
		}
		m.pinned = ms.InletPinned
		if ms.InletPinned {
			m.pin = float64(ms.InletPin)
			s.inlet[mi] = m.pin
		}
		if ms.FanFlow > 0 {
			m.nomCFM = ms.FanFlow
			m.fanM3s = ms.FanFlow.CubicMetersPerSecond()
		}
		s.energy[mi] = float64(ms.Energy)
		s.exhaust[mi] = float64(ms.ExhaustTemp)
		scales := s.scalesOf(mi)
		for i := range scales {
			scales[i] = 1
		}
		for node, scale := range ms.PowerScales {
			scales[sh.compOf[sh.index[node]]] = float64(scale)
		}
		st := s.stage(mi)
		for key, k := range ms.HeatKs {
			for i, hk := range sh.heatKeys {
				if hk == key {
					st.heatK[i] = float64(k)
				}
			}
		}
		for key, f := range ms.AirFractions {
			for i, ak := range sh.airKeys {
				if ak == key && units.Fraction(st.airFrac[i]) != f {
					st.airFrac[i] = float64(f)
				}
			}
		}
		// The restore may have rewritten any constant or input the
		// kernel caches, so rebind the machine — constants that match
		// a set rejoin it — leave its draws to the step and re-activate
		// it (kernel.go documents the invalidation rules).
		s.bind(mi)
		s.markStale(mi)
		s.quiet[mi] = false
	}
	// A restore can rewrite dynamics constants (heat Ks, fan flows,
	// power scales) and temperatures wholesale, so any recorded
	// trajectory no longer describes the live physics. WhatIf undoes
	// this bump after its round trip.
	s.fiddleGen++
	return nil
}

// validateMachineState checks one machine's slice of a State against
// its shape: the node set must be exactly the shape's, every key must
// name one of its utilization sources, components, heat edges or air
// edges, and every value must pass the rule of the fiddle operation
// that sets it (SetNodeTemperature, PinInlet, SetPowerScale, SetHeatK,
// SetAirFraction, SetFanFlow). A fan flow of zero or less is not a
// recorded flow and leaves the machine's fan as it is.
func validateMachineState(sh *kernelShape, ms MachineState) error {
	if len(ms.Temps) != len(sh.names) {
		return fmt.Errorf("has %d nodes, snapshot has %d", len(sh.names), len(ms.Temps))
	}
	for node, temp := range ms.Temps {
		if _, ok := sh.index[node]; !ok {
			return fmt.Errorf("no node %q", node)
		}
		if !temp.Valid() {
			return fmt.Errorf("invalid temperature %v for node %q", temp, node)
		}
	}
	for src := range ms.Utils {
		if _, ok := sh.utilPos[src]; !ok {
			return fmt.Errorf("no utilization source %q", src)
		}
	}
	if f := float64(ms.FanFlow); math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("invalid fan flow %v", f)
	}
	if ms.InletPinned && !ms.InletPin.Valid() {
		return fmt.Errorf("invalid inlet pin %v", ms.InletPin)
	}
	for node, scale := range ms.PowerScales {
		if idx, ok := sh.index[node]; !ok || sh.compOf[idx] < 0 {
			return fmt.Errorf("no component %q", node)
		}
		if !scale.Valid() {
			return fmt.Errorf("invalid power scale %v for %q", float64(scale), node)
		}
	}
	for key, k := range ms.HeatKs {
		if !slices.Contains(sh.heatKeys, key) {
			return fmt.Errorf("no heat edge %q", key)
		}
		if !validHeatK(k) {
			return fmt.Errorf("invalid heat constant %v for %q", float64(k), key)
		}
	}
	for key, f := range ms.AirFractions {
		if !slices.Contains(sh.airKeys, key) {
			return fmt.Errorf("no air edge %q", key)
		}
		if !f.Valid() {
			return fmt.Errorf("invalid air fraction %v for %q", float64(f), key)
		}
	}
	return nil
}

// WriteState serializes a snapshot as indented JSON.
func WriteState(w io.Writer, st *State) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(st)
}

// ReadState parses a snapshot.
func ReadState(r io.Reader) (*State, error) {
	st := &State{}
	dec := json.NewDecoder(r)
	if err := dec.Decode(st); err != nil {
		return nil, fmt.Errorf("solver: state: %w", err)
	}
	return st, nil
}
