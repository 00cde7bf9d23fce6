package solver

import (
	"math"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

// This file is the trajectory-observation surface consumed by
// internal/surrogate: a fixed flat layout describing the owned
// machines, a zero-allocation sampler that copies one training row per
// call, and a model-generation counter that tells the surrogate when
// recorded history stopped describing the current physics.

// InletEdge is one compiled room-level feed into a machine's inlet.
// Exactly one of Source and Machine is non-empty.
type InletEdge struct {
	Source   string
	Machine  string
	Fraction float64
}

// MachineLayout describes one owned machine's slice of a ReadSample
// row. The row layout per machine is
//
//	[on, inlet, utils..., temps..., exhaust]
//
// with utils in Utils order and temps in Nodes (compiled) order, so a
// machine's stride is 3 + len(Utils) + len(Nodes). Rows concatenate
// machines in SampleLayout order.
type MachineLayout struct {
	Name   string
	Nodes  []string
	Utils  []model.UtilSource
	Inlets []InletEdge
}

// Stride returns the number of row entries this machine occupies.
func (l *MachineLayout) Stride() int { return 3 + len(l.Utils) + len(l.Nodes) }

// SampleLayout returns the owned machines' row layout for ReadSample,
// in the same deterministic order rows are written. The layout is
// fixed at compile time; callers may cache it for the solver's
// lifetime.
func (s *Solver) SampleLayout() []MachineLayout {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]MachineLayout, len(s.owned))
	for i, mi := range s.owned {
		m := &s.ms[mi]
		l := MachineLayout{
			Name:  m.name,
			Nodes: append([]string(nil), m.shape.names...),
			Utils: append([]model.UtilSource(nil), m.shape.utilKeys...),
		}
		for _, e := range m.roomIn {
			switch e.kind {
			case fromSource:
				l.Inlets = append(l.Inlets, InletEdge{Source: s.sources[e.ref].name, Fraction: e.frac})
			case fromMachine:
				l.Inlets = append(l.Inlets, InletEdge{Machine: s.ms[e.ref].name, Fraction: e.frac})
			}
		}
		out[i] = l
	}
	return out
}

// SourceNames returns the room-level source names in the order
// ReadSources fills values.
func (s *Solver) SourceNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, len(s.sources))
	for i, src := range s.sources {
		names[i] = src.name
	}
	return names
}

// ModelGeneration returns the solver's fiddle generation: a counter
// bumped by every mutation that changes the step map itself (heat
// constants, air fractions, fan flows, power scales, forced node
// temperatures, state restores) but NOT by ordinary input changes
// (utilization updates, inlet pins, source setpoints, machine power,
// stepping). Trajectory samples recorded under one generation describe
// the same linear dynamics; a fit is only valid while the generation
// it was trained under is still current.
func (s *Solver) ModelGeneration() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fiddleGen
}

// ReadSample copies one trajectory row — per owned machine
// [on, inlet, utils..., temps..., exhaust] in SampleLayout order —
// into dst, returning the entries written plus the step count and
// model generation the row belongs to. It takes the solver lock once
// and allocates nothing, so the stepping loop can record every tick.
// dst shorter than the full row stops early.
func (s *Solver) ReadSample(dst []float64) (n int, step uint64, gen uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := 0
	for _, mi := range s.owned {
		sh := s.ms[mi].shape
		if k+3+len(sh.utilKeys)+len(sh.names) > len(dst) {
			return k, s.steps, s.fiddleGen
		}
		k = s.readRow(dst, k, int(mi), true)
	}
	return k, s.steps, s.fiddleGen
}

// ReadInputs copies the per-machine scenario inputs — [on, inlet,
// utils..., exhaust] in SampleLayout order, node temperatures omitted
// — into dst, returning the entries written and the current model
// generation. The what-if surrogate reads this on every query; leaving
// out the temps keeps the copy a fraction of a full ReadSample row on
// deep machines. Zero allocations, one lock acquisition.
func (s *Solver) ReadInputs(dst []float64) (n int, gen uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := 0
	for _, mi := range s.owned {
		if k+3+len(s.ms[mi].shape.utilKeys) > len(dst) {
			return k, s.fiddleGen
		}
		k = s.readRow(dst, k, int(mi), false)
	}
	return k, s.fiddleGen
}

// readRow writes machine mi's row — [on, inlet, utils..., exhaust],
// with its temperature window before the exhaust when withTemps — into
// dst at k, which must have room, and returns the index after it.
func (s *solverCore) readRow(dst []float64, k, mi int, withTemps bool) int {
	if s.ms[mi].on {
		dst[k] = 1
	} else {
		dst[k] = 0
	}
	dst[k+1] = s.inlet[mi]
	k += 2
	k += copy(dst[k:], s.utilsOf(mi))
	if withTemps {
		k += copy(dst[k:], s.tempsOf(mi))
	}
	dst[k] = s.exhaust[mi]
	return k + 1
}

// ReadPins copies each owned machine's inlet pin into dst in
// SampleLayout order, NaN where the inlet is unpinned. Zero
// allocations; returns the count written.
func (s *Solver) ReadPins(dst []float64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := 0
	for _, mi := range s.owned {
		if k >= len(dst) {
			return k
		}
		if m := &s.ms[mi]; m.pinned {
			dst[k] = m.pin
		} else {
			dst[k] = math.NaN()
		}
		k++
	}
	return k
}

// ReadSources copies the current source supply temperatures into dst
// in SourceNames order. Zero allocations; returns the count written.
func (s *Solver) ReadSources(dst []float64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := 0
	for _, src := range s.sources {
		if k >= len(dst) {
			return k
		}
		dst[k] = src.supply
		k++
	}
	return k
}

// WhatIf runs fn against the live solver — typically a few fiddle
// operations followed by RunUntilSteady and some temperature reads —
// then rewinds every effect: temperatures, energy, pins, power states,
// the emulated clock, and the model generation all return to their
// values at entry, so recorded trajectory history stays valid. fn's
// error (or the restore's, if fn succeeded) is returned; the restore
// runs regardless.
//
// WhatIf is not atomic with respect to concurrent stepping: a stepping
// loop that interleaves with the hypothetical run would advance (and
// then lose) real ticks and could record hypothetical state into a
// trajectory ring. Daemons must serialize WhatIf against their step
// loop (solverd holds its tick mutex across the call); offline callers
// are naturally serial.
func (s *Solver) WhatIf(fn func(*Solver) error) error {
	st := s.SaveState()
	s.mu.Lock()
	gen0 := s.fiddleGen
	s.mu.Unlock()
	err := fn(s)
	if rerr := s.RestoreState(st); rerr != nil && err == nil {
		err = rerr
	}
	// The restore reproduced the saved dynamics bit-for-bit, so the
	// hypothetical run must not invalidate surrogate history: put the
	// generation back where it started.
	s.mu.Lock()
	s.fiddleGen = gen0
	s.mu.Unlock()
	return err
}

// MaxComponentTemp returns the hottest node across all owned machines
// — the quantity what-if queries rank scenarios by — along with its
// machine and node names. Deterministic: compiled order breaks ties.
func (s *Solver) MaxComponentTemp() (units.Celsius, string, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	best := math.Inf(-1)
	var bm, bn string
	for _, mi := range s.owned {
		m := &s.ms[mi]
		for i, t := range s.tempsOf(int(mi)) {
			if t > best {
				best, bm, bn = t, m.name, m.shape.names[i]
			}
		}
	}
	if math.IsInf(best, -1) {
		return 0, "", ""
	}
	return units.Celsius(best), bm, bn
}
