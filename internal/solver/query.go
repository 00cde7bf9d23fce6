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

// machine resolves an owned machine's global index.
func (s *Solver) machine(name string) (int, error) {
	mi, ok := s.byName[name]
	if !ok {
		return 0, &ErrUnknown{Kind: "machine", Name: name}
	}
	if m := &s.ms[mi]; m.remote {
		// Partitioned cluster (Config.Regions): only the owning region's
		// instance may read or fiddle this machine.
		return 0, &ErrRemoteMachine{Machine: name, Region: int(m.region)}
	}
	return int(mi), nil
}

// Machines returns the owned machine names in compilation order (all
// machines unless the cluster is partitioned by Config.Regions).
func (s *Solver) Machines() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, len(s.owned))
	for i, mi := range s.owned {
		names[i] = s.ms[mi].name
	}
	return names
}

// Nodes returns the sorted node names of a machine.
func (s *Solver) Nodes(machine string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mi, err := s.machine(machine)
	if err != nil {
		return nil, err
	}
	names := append([]string(nil), s.ms[mi].shape.names...)
	sort.Strings(names)
	return names, nil
}

// Temperature returns the current emulated temperature of one node.
// This is what the sensor library ultimately reads.
func (s *Solver) Temperature(machine, node string) (units.Celsius, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mi, err := s.machine(machine)
	if err != nil {
		return 0, err
	}
	idx, ok := s.ms[mi].shape.index[node]
	if !ok {
		return 0, &ErrUnknown{Kind: "node", Name: machine + "/" + node}
	}
	return units.Celsius(s.tempsOf(mi)[idx]), nil
}

// tempMap is machine mi's node temperatures keyed by node name.
func (s *solverCore) tempMap(mi int) map[string]units.Celsius {
	names := s.ms[mi].shape.names
	temps := s.tempsOf(mi)
	out := make(map[string]units.Celsius, len(names))
	for i, name := range names {
		out[name] = units.Celsius(temps[i])
	}
	return out
}

// ExhaustTemperature returns the machine's flow-weighted exhaust mix.
func (s *Solver) ExhaustTemperature(machine string) (units.Celsius, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mi, err := s.machine(machine)
	if err != nil {
		return 0, err
	}
	return units.Celsius(s.exhaust[mi]), nil
}

// SetUtilization records the most recent utilization sample for one of
// a machine's utilization streams; the next Step consumes it. This is
// the entry point monitord updates feed into (Equation 4's
// utilization).
func (s *Solver) SetUtilization(machine string, src model.UtilSource, u units.Fraction) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	mi, err := s.machine(machine)
	if err != nil {
		return err
	}
	if s.setUtils(mi, []model.UtilSample{{Source: src, Util: u}}) != 0 {
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
	return s.setUtils(int(s.owned[machine]), entries)
}

// setUtils stores entries in machine mi's utilization streams and
// reports how many named no stream of it.
func (s *solverCore) setUtils(mi int, entries []model.UtilSample) (unknown int) {
	keys := s.ms[mi].shape.utilKeys
	vals := s.utilsOf(mi)
	changed := false
	for _, e := range entries {
		pos := slices.Index(keys, e.Source)
		if pos < 0 {
			unknown++
			continue
		}
		// Only a bitwise change invalidates the cached draws and
		// re-activates the machine: monitord streams repeat identical
		// samples at steady load, and those must not break quiescence.
		v := float64(e.Util.Clamp())
		if math.Float64bits(v) != math.Float64bits(vals[pos]) {
			vals[pos] = v
			changed = true
		}
	}
	if changed {
		// Once per report, not per entry: the draws are a pure function
		// of the final utilVals.
		s.refreshDraws(mi)
		s.markDirty(mi)
	}
	return unknown
}

// Utilization returns the last recorded utilization for a stream.
func (s *Solver) Utilization(machine string, src model.UtilSource) (units.Fraction, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mi, err := s.machine(machine)
	if err != nil {
		return 0, err
	}
	pos, ok := s.ms[mi].shape.utilPos[src]
	if !ok {
		return 0, &ErrUnknown{Kind: "utilization source", Name: machine + "/" + string(src)}
	}
	return units.Fraction(s.utilsOf(mi)[pos]), nil
}

// TotalEnergy returns the cumulative energy drawn by the owned
// machines (the whole cluster unless partitioned by Config.Regions).
func (s *Solver) TotalEnergy() units.Joules {
	s.mu.Lock()
	defer s.mu.Unlock()
	var e float64
	for _, mi := range s.owned {
		e += s.energy[mi]
	}
	return units.Joules(e)
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
	n := 0
	for _, run := range s.ownedTemps {
		n += int(run[1] - run[0])
	}
	machines, nodes = make([]string, 0, n), make([]string, 0, n)
	for _, mi := range s.owned {
		m := &s.ms[mi]
		for _, name := range m.shape.names {
			machines = append(machines, m.name)
			nodes = append(nodes, name)
		}
	}
	return machines, nodes
}

// ReadAllTemps copies every node temperature into dst in Probes
// order, returning the count written (stopping early if dst is
// short). It takes the solver lock once and performs no allocation,
// so it is safe to call from a telemetry sampler between steps. The
// owned machines' windows are contiguous in the room's temperature
// array, so this is one copy per run of owned machines — one copy in
// all when the cluster is unpartitioned.
func (s *Solver) ReadAllTemps(dst []float64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := 0
	for _, run := range s.ownedTemps {
		n := copy(dst[k:], s.temps[run[0]:run[1]])
		k += n
		if n < int(run[1]-run[0]) {
			break
		}
	}
	return k
}

// Snapshot captures every machine's node temperatures at once, keyed
// by machine name. Used by experiment harnesses to record time series.
func (s *Solver) Snapshot() map[string]map[string]units.Celsius {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]map[string]units.Celsius, len(s.owned))
	for _, mi := range s.owned {
		out[s.ms[mi].name] = s.tempMap(int(mi))
	}
	return out
}
