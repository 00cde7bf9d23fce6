package solver

import (
	"fmt"
	"math"

	"github.com/darklab/mercury/internal/units"
)

// The methods in this file implement the run-time mutations behind the
// fiddle tool (Section 2.3): "Fiddle can force the solver to change any
// constant or temperature on-line." Each method is an independent,
// atomic operation so the UDP daemon can apply them while the stepping
// loop runs.
//
// Every mutation refreshes the kernel's cached coefficients it staled
// (kernel.go documents the rules): a changed constant moves the machine
// to the set of its new constants (room.bind), leaving its set-mates
// and their set untouched, and a changed input refreshes its own
// windows only. Every mutation marks the machine dirty so the active
// set re-steps it.

// SetNodeTemperature forces a node to the given temperature
// immediately (a one-shot assignment; the physics evolves it from
// there).
func (s *Solver) SetNodeTemperature(machine, node string, t units.Celsius) error {
	if !t.Valid() {
		return fmt.Errorf("solver: invalid temperature %v", t)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	mi, err := s.machine(machine)
	if err != nil {
		return err
	}
	idx, ok := s.ms[mi].shape.index[node]
	if !ok {
		return &ErrUnknown{Kind: "node", Name: machine + "/" + node}
	}
	rows, l := s.tempsOf(mi)
	rows[idx][l] = float64(t)
	s.fiddleGen++ // a forced jump breaks trajectory continuity
	s.markDirty(mi)
	return nil
}

// PinInlet overrides a machine's inlet temperature until UnpinInlet.
// This is fiddle's workhorse for thermal emergencies: "fiddle machine1
// temperature inlet 30" emulates an air-conditioning failure or a
// blocked intake.
func (s *Solver) PinInlet(machine string, t units.Celsius) error {
	if !t.Valid() {
		return fmt.Errorf("solver: invalid temperature %v", t)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	mi, err := s.machine(machine)
	if err != nil {
		return err
	}
	v := float64(t)
	s.ms[mi].pinned = true
	s.ms[mi].pin = v
	s.inlet[mi] = v
	s.markDirty(mi)
	return nil
}

// UnpinInlet removes an inlet override; the machine's inlet goes back
// to the room-level mix on the next step.
func (s *Solver) UnpinInlet(machine string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	mi, err := s.machine(machine)
	if err != nil {
		return err
	}
	s.ms[mi].pinned = false
	s.markDirty(mi)
	return nil
}

// SetSourceTemperature changes a room-level source's supply
// temperature (e.g. the AC setpoint, or its failure).
func (s *Solver) SetSourceTemperature(source string, t units.Celsius) error {
	if !t.Valid() {
		return fmt.Errorf("solver: invalid temperature %v", t)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.srcIdx[source]
	if !ok {
		return &ErrUnknown{Kind: "source", Name: source}
	}
	s.sources[i].supply = float64(t)
	// No single machine to re-activate: the new supply reaches every
	// downstream inlet through the next inlet sweep, which the
	// all-quiescent fast path skips unless this records the change.
	s.anyDirty = true
	return nil
}

// SetHeatK changes the heat-transfer constant of the edge between two
// nodes. The edge may be named in either direction (heat edges are
// undirected).
func (s *Solver) SetHeatK(machine, a, b string, k units.WattsPerKelvin) error {
	if !validHeatK(k) {
		return fmt.Errorf("solver: invalid heat constant %v", float64(k))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	mi, err := s.machine(machine)
	if err != nil {
		return err
	}
	m := &s.ms[mi]
	ia, ok := m.shape.index[a]
	if !ok {
		return &ErrUnknown{Kind: "node", Name: machine + "/" + a}
	}
	ib, ok := m.shape.index[b]
	if !ok {
		return &ErrUnknown{Kind: "node", Name: machine + "/" + b}
	}
	if i := m.shape.heatEdgeIndex(ia, ib); i >= 0 {
		s.stage(mi).heatK[i] = float64(k)
		s.bind(mi)
		s.fiddleGen++
		s.markDirty(mi)
		return nil
	}
	return &ErrUnknown{Kind: "heat edge", Name: machine + "/" + a + "--" + b}
}

// SetAirFraction changes the split fraction of a directed air edge.
// The caller is responsible for keeping per-node fractions summing to
// 1 (fiddle scripts usually adjust complementary edges back to back);
// flows are recompiled immediately. Section 2.2's discussion of
// variable-speed fans relies on this hook.
func (s *Solver) SetAirFraction(machine, from, to string, f units.Fraction) error {
	if !f.Valid() {
		return fmt.Errorf("solver: invalid air fraction %v", float64(f))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	mi, err := s.machine(machine)
	if err != nil {
		return err
	}
	m := &s.ms[mi]
	sh := m.shape
	for i, e := range sh.airEdges {
		if sh.names[e.a] == from && sh.names[e.b] == to {
			s.stage(mi).airFrac[i] = float64(f)
			s.bind(mi)
			s.fiddleGen++
			s.markDirty(mi)
			return nil
		}
	}
	return &ErrUnknown{Kind: "air edge", Name: machine + "/" + from + "->" + to}
}

// SetFanFlow changes a machine's fan throughput, emulating multi-speed
// fans.
func (s *Solver) SetFanFlow(machine string, flow units.CubicFeetPerMinute) error {
	if !validFanFlow(flow) {
		return fmt.Errorf("solver: invalid fan flow %v", float64(flow))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	mi, err := s.machine(machine)
	if err != nil {
		return err
	}
	s.ms[mi].fanM3s = flow.CubicMetersPerSecond()
	s.ms[mi].nomCFM = flow
	s.stage(mi)
	s.bind(mi)
	s.fiddleGen++
	s.markDirty(mi)
	return nil
}

// FanFlow returns a machine's current nominal fan throughput.
func (s *Solver) FanFlow(machine string) (units.CubicFeetPerMinute, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mi, err := s.machine(machine)
	if err != nil {
		return 0, err
	}
	return s.ms[mi].nomCFM, nil
}

// SetPowerScale scales a component's power draw by the given factor in
// [0,1], emulating CPU-local thermal management (clock throttling or
// voltage/frequency scaling, Section 4.3's comparison point).
func (s *Solver) SetPowerScale(machine, component string, scale units.Fraction) error {
	if !scale.Valid() {
		return fmt.Errorf("solver: invalid power scale %v", float64(scale))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	mi, err := s.machine(machine)
	if err != nil {
		return err
	}
	m := &s.ms[mi]
	idx, ok := m.shape.index[component]
	if !ok {
		return &ErrUnknown{Kind: "node", Name: machine + "/" + component}
	}
	ci := m.shape.compOf[idx]
	if ci < 0 {
		return &ErrUnknown{Kind: "component", Name: machine + "/" + component}
	}
	s.scalesOf(mi)[ci] = float64(scale)
	s.markStale(mi)
	s.fiddleGen++
	return nil
}

// SetMachinePower turns a machine on or off. An off machine draws no
// power and moves only natural-draft air; its components keep cooling
// toward the inlet temperature. Freon-EC uses this for cluster
// reconfiguration.
func (s *Solver) SetMachinePower(machine string, on bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	mi, err := s.machine(machine)
	if err != nil {
		return err
	}
	if s.ms[mi].on != on {
		s.ms[mi].on = on
		s.stage(mi)
		s.bind(mi)
		s.markStale(mi)
	}
	return nil
}

// validHeatK is SetHeatK's rule for a heat constant, which RestoreState
// applies too: finite and not negative.
func validHeatK(k units.WattsPerKelvin) bool {
	return k >= 0 && !math.IsInf(float64(k), 0)
}

// validFanFlow is SetFanFlow's rule for a fan flow: finite and
// positive.
func validFanFlow(flow units.CubicFeetPerMinute) bool {
	return flow > 0 && !math.IsInf(float64(flow), 0)
}
