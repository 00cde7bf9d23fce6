package solver

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

// ErrUnknown is wrapped by lookup failures so callers can distinguish
// "no such machine/node" from transport errors.
type ErrUnknown struct {
	Kind, Name string
}

func (e *ErrUnknown) Error() string { return fmt.Sprintf("solver: unknown %s %q", e.Kind, e.Name) }

func (s *Solver) machine(name string) (*compiledMachine, error) {
	cm, ok := s.byName[name]
	if !ok {
		return nil, &ErrUnknown{Kind: "machine", Name: name}
	}
	if cm.remote {
		// Partitioned cluster (Config.Regions): only the owning region's
		// instance may read or fiddle this machine.
		return nil, &ErrRemoteMachine{Machine: name, Region: int(cm.region)}
	}
	return cm, nil
}

// Machines returns the owned machine names in compilation order (all
// machines unless the cluster is partitioned by Config.Regions).
func (s *Solver) Machines() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, len(s.owned))
	for i, cm := range s.owned {
		names[i] = cm.name
	}
	return names
}

// Nodes returns the sorted node names of a machine.
func (s *Solver) Nodes(machine string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cm, err := s.machine(machine)
	if err != nil {
		return nil, err
	}
	names := append([]string(nil), cm.names...)
	sort.Strings(names)
	return names, nil
}

// Temperature returns the current emulated temperature of one node.
// This is what the sensor library ultimately reads.
func (s *Solver) Temperature(machine, node string) (units.Celsius, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cm, err := s.machine(machine)
	if err != nil {
		return 0, err
	}
	idx, ok := cm.index[node]
	if !ok {
		return 0, &ErrUnknown{Kind: "node", Name: machine + "/" + node}
	}
	return units.Celsius(cm.temps[idx]), nil
}

// Temperatures returns a copy of all node temperatures of a machine.
func (s *Solver) Temperatures(machine string) (map[string]units.Celsius, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cm, err := s.machine(machine)
	if err != nil {
		return nil, err
	}
	out := make(map[string]units.Celsius, len(cm.names))
	for i, name := range cm.names {
		out[name] = units.Celsius(cm.temps[i])
	}
	return out, nil
}

// InletTemperature returns the machine's effective inlet temperature
// for the current step (pin, or room-level mix).
func (s *Solver) InletTemperature(machine string) (units.Celsius, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cm, err := s.machine(machine)
	if err != nil {
		return 0, err
	}
	return units.Celsius(cm.inletTemp), nil
}

// ExhaustTemperature returns the machine's flow-weighted exhaust mix.
func (s *Solver) ExhaustTemperature(machine string) (units.Celsius, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cm, err := s.machine(machine)
	if err != nil {
		return 0, err
	}
	return units.Celsius(cm.exhaustTemp), nil
}

// SetUtilization records the most recent utilization sample for one of
// a machine's utilization streams; the next Step consumes it. This is
// the entry point monitord updates feed into (Equation 4's
// utilization).
func (s *Solver) SetUtilization(machine string, src model.UtilSource, u units.Fraction) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cm, err := s.machine(machine)
	if err != nil {
		return err
	}
	if s.setUtils(cm, []model.UtilSample{{Source: src, Util: u}}) != 0 {
		return &ErrUnknown{Kind: "utilization source", Name: machine + "/" + string(src)}
	}
	return nil
}

// ApplyUtilization is SetUtilization for a whole monitord report: every
// entry of one machine under one lock, the machine addressed by its
// position in Machines() so the daemon resolves its name once. It
// returns how many entries named a stream the machine does not have
// (all of them if there is no such machine); the others are applied.
// The state it leaves is the one the same entries leave when set one
// at a time, in order.
func (s *Solver) ApplyUtilization(machine int, entries []model.UtilSample) (unknown int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if machine < 0 || machine >= len(s.owned) {
		return len(entries)
	}
	return s.setUtils(s.owned[machine], entries)
}

// setUtils stores entries in cm's utilization streams and reports how
// many named no stream of cm.
func (s *solverCore) setUtils(cm *compiledMachine, entries []model.UtilSample) (unknown int) {
	changed := false
	for _, e := range entries {
		pos := slices.Index(cm.utilKeys, e.Source)
		if pos < 0 {
			unknown++
			continue
		}
		// Only a bitwise change invalidates the cached draws and
		// re-activates the machine: monitord streams repeat identical
		// samples at steady load, and those must not break quiescence.
		v := float64(e.Util.Clamp())
		if math.Float64bits(v) != math.Float64bits(cm.utilVals[pos]) {
			cm.utilVals[pos] = v
			changed = true
		}
	}
	if changed {
		// Once per report, not per entry: the draws are a pure function
		// of the final utilVals.
		cm.refreshDraws()
		s.markDirty(cm)
	}
	return unknown
}

// Utilization returns the last recorded utilization for a stream.
func (s *Solver) Utilization(machine string, src model.UtilSource) (units.Fraction, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cm, err := s.machine(machine)
	if err != nil {
		return 0, err
	}
	pos, ok := cm.utilPos[src]
	if !ok {
		return 0, &ErrUnknown{Kind: "utilization source", Name: machine + "/" + string(src)}
	}
	return units.Fraction(cm.utilVals[pos]), nil
}

// Power returns the machine's total power draw during the most recent
// step (the sum of its components' draws; 0 when the machine is off).
func (s *Solver) Power(machine string) (units.Watts, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cm, err := s.machine(machine)
	if err != nil {
		return 0, err
	}
	var w float64
	for i := range cm.comps {
		w += cm.curDraw[i]
	}
	return units.Watts(w), nil
}

// Energy returns the machine's cumulative energy drawn since the
// solver started. Freon-EC's evaluation uses this to report the energy
// its reconfigurations save.
func (s *Solver) Energy(machine string) (units.Joules, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cm, err := s.machine(machine)
	if err != nil {
		return 0, err
	}
	return units.Joules(cm.energy), nil
}

// TotalEnergy returns the cumulative energy drawn by the owned
// machines (the whole cluster unless partitioned by Config.Regions).
func (s *Solver) TotalEnergy() units.Joules {
	s.mu.Lock()
	defer s.mu.Unlock()
	var e float64
	for _, cm := range s.owned {
		e += cm.energy
	}
	return units.Joules(e)
}

// MachineOn reports whether the machine is powered on.
func (s *Solver) MachineOn(machine string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cm, err := s.machine(machine)
	if err != nil {
		return false, err
	}
	return cm.on, nil
}

// StepSize returns the emulated duration of one iteration.
func (s *Solver) StepSize() time.Duration { return s.cfg.Step }

// Probes returns every (machine, node) pair in deterministic order:
// machines in compilation order, nodes in each machine's compiled
// node order. ReadAllTemps fills values in exactly this order; the
// telemetry temperature table uses the pair to label its columns.
func (s *Solver) Probes() (machines, nodes []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, cm := range s.owned {
		for _, name := range cm.names {
			machines = append(machines, cm.name)
			nodes = append(nodes, name)
		}
	}
	return machines, nodes
}

// ReadAllTemps copies every node temperature into dst in Probes
// order, returning the count written (stopping early if dst is
// short). It takes the solver lock once and performs no allocation,
// so it is safe to call from a telemetry sampler between steps.
func (s *Solver) ReadAllTemps(dst []float64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := 0
	for _, cm := range s.owned {
		if k+len(cm.temps) > len(dst) {
			n := copy(dst[k:], cm.temps)
			return k + n
		}
		copy(dst[k:], cm.temps)
		k += len(cm.temps)
	}
	return k
}

// Snapshot captures every machine's node temperatures at once, keyed
// by machine name. Used by experiment harnesses to record time series.
func (s *Solver) Snapshot() map[string]map[string]units.Celsius {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]map[string]units.Celsius, len(s.owned))
	for _, cm := range s.owned {
		mt := make(map[string]units.Celsius, len(cm.names))
		for i, name := range cm.names {
			mt[name] = units.Celsius(cm.temps[i])
		}
		out[cm.name] = mt
	}
	return out
}
