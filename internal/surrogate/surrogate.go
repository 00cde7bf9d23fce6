// Package surrogate fits a per-machine linear state-space model to
// trajectories recorded from the live solver and answers "what are the
// steady temperatures if I power off / re-utilize / re-pin these
// machines" in microseconds instead of stepping the kernel to a fixed
// point (see docs/surrogate.md and the fast-surrogate literature in
// PAPERS.md).
//
// The model form per machine is the one-step affine map
//
//	T(t+1) = A·T(t) + B·[1, inlet(t+1), utils(t+1)]
//
// fit by ridge-regularized least squares over consecutive sample pairs
// recorded by Record (0 allocs/op, so the stepping loop can record
// every tick). At fit time the steady-state gain M = (I−A)⁻¹B is
// precomputed, and the exhaust output is collapsed through M into a
// pure-input affine form, so a whole-room steady query reduces to a
// small fixed-point iteration over exhaust/inlet mixes followed by one
// M·u evaluation per machine — no linear solves on the query path.
//
// Every fit self-reports its validity: the one-step residual must stay
// under residualTol (0.1 °C) and queries must stay inside the fitted
// input envelope (per-input min/max expanded by envelopeFrac of its
// range plus an absolute margin). Outside that regime the model
// declines and the caller falls back to the real kernel
// (KernelWhatIf), so the fast path can never silently return
// extrapolated garbage.
package surrogate

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/units"
)

// Config tunes recording. The zero value selects a workable stride
// for 1-second solver steps.
type Config struct {
	// Every is the recording stride: Record stores one sample per
	// Every calls (solver ticks). Training pairs span Every steps, so
	// a larger stride sees more of the slow thermal modes per pair —
	// the steady-state gain (I−A)⁻¹B is extracted from A's spectral
	// radius, and at a 1-second step the dominant modes are minutes
	// long, so 1-step pairs amplify any fit bias by ~1/(1−ρ) ≈ 10³.
	// Default 60 (one emulated minute per pair).
	Every int
}

// Fitting and validity constants.
const (
	// capacity is the trajectory ring size in stored samples.
	capacity = 256
	// ridge scales the Tikhonov term added to the Gram diagonal,
	// relative to trace(G)/q. Near-steady trajectories are strongly
	// collinear; the ridge keeps the solve stable, but any ridge bias
	// in A is amplified ~1/(1−ρ(A)) in the steady gain, so it must
	// stay tiny — just enough to break exact singularity.
	ridge = 1e-10
	// residualTol is the largest acceptable one-step RMS prediction
	// error (°C) for a machine's fit.
	residualTol = 0.1
	// envelopeFrac expands each input's fitted [min,max] envelope by
	// this fraction of its range on both sides.
	envelopeFrac = 0.25
	// envelopeAbsTemp and envelopeAbsUtil are absolute envelope margins
	// for inlet temperatures (°C) and utilizations. They matter when an
	// input barely moved during recording (range ≈ 0).
	envelopeAbsTemp = 1.0
	envelopeAbsUtil = 0.05
	// maxIter bounds the room fixed-point iteration over exhaust
	// mixes (feed-forward rooms converge in a handful).
	maxIter = 100
	// kernelTol and kernelHorizon parameterize the kernel fallback:
	// RunUntilSteady's convergence tolerance and emulated-time cap.
	kernelTol     units.Celsius = 1e-3
	kernelHorizon               = 4 * time.Hour
)

func (c Config) withDefaults() Config {
	if c.Every <= 0 {
		c.Every = 60
	}
	return c
}

// redge is one resolved room-level inlet feed: either a source (src
// true, ref into the source order) or another machine's exhaust (ref
// into the layout order).
type redge struct {
	src  bool
	ref  int
	frac float64
}

// Model records solver trajectories and serves surrogate predictions.
// Record, Fit, Predict, and WhatIf are safe for concurrent use.
type Model struct {
	sol *solver.Solver
	cfg Config

	// Immutable after New: the sample-row layout.
	layout   []solver.MachineLayout
	offs     []int // training-row offset per machine (ReadSample layout)
	rowLen   int
	ioffs    []int // scenario-input offset per machine (ReadInputs layout)
	inLen    int
	midx     map[string]int
	sidx     map[string]int
	srcNames []string
	edges    [][]redge
	// feedForward is true when no machine's inlet mixes another
	// machine's exhaust: inlets then depend only on sources and pins,
	// so queries skip the exhaust fixed-point iteration entirely.
	feedForward bool

	// Trajectory ring, guarded by mu. data holds count rows of rowLen
	// floats; head is the next write slot.
	mu    sync.Mutex
	data  []float64
	steps []uint64
	gens  []uint64
	head  int
	count int
	tick  int // Record calls since the last stored sample

	// The current fit, swapped atomically so queries never block on a
	// fit in progress. fitMu serializes fitters (the background
	// goroutine and explicit Fit calls) over the shared scratch.
	fit     atomic.Pointer[fitState]
	fitMu   sync.Mutex
	scratch fitScratch

	qpool sync.Pool // *queryScratch

	// Transient-query scratch (TimeToThreshold), built on first use.
	transOnce sync.Once
	trans     *transScratch

	samples   atomic.Uint64
	fits      atomic.Uint64
	queries   atomic.Uint64
	declines  atomic.Uint64
	fallbacks atomic.Uint64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New builds a Model over sol. The solver must be unpartitioned
// (Config.Regions empty): the surrogate iterates whole-room inlet
// mixes, which requires every machine's exhaust locally.
func New(sol *solver.Solver, cfg Config) (*Model, error) {
	if _, total := sol.Region(); total > 0 {
		return nil, fmt.Errorf("surrogate: solver is partitioned (region of %d); the surrogate needs the whole room", total)
	}
	m := &Model{
		sol:      sol,
		cfg:      cfg.withDefaults(),
		layout:   sol.SampleLayout(),
		midx:     map[string]int{},
		sidx:     map[string]int{},
		srcNames: sol.SourceNames(),
		stop:     make(chan struct{}),
	}
	for i := range m.layout {
		m.midx[m.layout[i].Name] = i
		m.offs = append(m.offs, m.rowLen)
		m.rowLen += m.layout[i].Stride()
		m.ioffs = append(m.ioffs, m.inLen)
		m.inLen += 3 + len(m.layout[i].Utils)
	}
	for i, name := range m.srcNames {
		m.sidx[name] = i
	}
	m.edges = make([][]redge, len(m.layout))
	m.feedForward = true
	for i := range m.layout {
		for _, e := range m.layout[i].Inlets {
			if e.Source != "" {
				si, ok := m.sidx[e.Source]
				if !ok {
					return nil, fmt.Errorf("surrogate: machine %s fed by unknown source %q", m.layout[i].Name, e.Source)
				}
				m.edges[i] = append(m.edges[i], redge{src: true, ref: si, frac: e.Fraction})
				continue
			}
			mi, ok := m.midx[e.Machine]
			if !ok {
				// A feed from a machine outside the owned set means the
				// solver is partitioned; this instance cannot close the
				// room's exhaust loop on its own.
				return nil, fmt.Errorf("surrogate: machine %s fed by unowned machine %q (partitioned solver?)", m.layout[i].Name, e.Machine)
			}
			m.edges[i] = append(m.edges[i], redge{src: false, ref: mi, frac: e.Fraction})
			m.feedForward = false
		}
	}
	m.data = make([]float64, capacity*m.rowLen)
	m.steps = make([]uint64, capacity)
	m.gens = make([]uint64, capacity)
	m.qpool.New = func() any { return m.newQueryScratch() }
	return m, nil
}

// Record captures a trajectory sample from the solver's current
// state, storing one sample per Config.Every calls (the stepping loop
// calls it after every tick). It performs no allocation — at most one
// row copy under two short mutexes.
func (m *Model) Record() {
	m.mu.Lock()
	m.tick++
	if m.tick < m.cfg.Every {
		m.mu.Unlock()
		return
	}
	m.tick = 0
	row := m.data[m.head*m.rowLen : (m.head+1)*m.rowLen]
	_, step, gen := m.sol.ReadSample(row)
	// A re-recorded step (the solver was rewound, e.g. by a state
	// restore) would corrupt pair continuity; the generation bump the
	// rewind performed already invalidates older samples, so the ring
	// can simply keep appending.
	m.steps[m.head] = step
	m.gens[m.head] = gen
	m.head++
	if m.head == capacity {
		m.head = 0
	}
	if m.count < capacity {
		m.count++
	}
	m.mu.Unlock()
	m.samples.Add(1)
}

// StartAutoFit refits the model every interval of *real* time on a
// background goroutine — deliberately off the virtual clock, so warp
// runs neither stall on fitting nor skew it. Stop with Close.
func (m *Model) StartAutoFit(interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	m.done = make(chan struct{})
	go func() {
		defer close(m.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		var lastSamples uint64
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				if n := m.samples.Load(); n != lastSamples {
					lastSamples = n
					m.Fit()
				}
			}
		}
	}()
}

// Close stops the auto-fit goroutine (if any). The model remains
// usable for explicit Fit/Predict calls.
func (m *Model) Close() {
	m.stopOnce.Do(func() { close(m.stop) })
	if m.done != nil {
		<-m.done
	}
}

// FitStats is a snapshot of the surrogate's health, served under
// /state by daemons embedding a model.
type FitStats struct {
	Samples         uint64  `json:"samples"`
	Fits            uint64  `json:"fits"`
	Queries         uint64  `json:"queries"`
	Declines        uint64  `json:"declines"`
	KernelFallbacks uint64  `json:"kernel_fallbacks"`
	FitGeneration   uint64  `json:"fit_generation"`
	ModelGeneration uint64  `json:"model_generation"`
	Machines        int     `json:"machines"`
	MachinesOK      int     `json:"machines_ok"`
	Pairs           int     `json:"pairs"`
	MaxResidualC    float64 `json:"max_residual_c"`
}

// Stats reports the model's current fit quality and counters.
func (m *Model) Stats() FitStats {
	st := FitStats{
		Samples:         m.samples.Load(),
		Fits:            m.fits.Load(),
		Queries:         m.queries.Load(),
		Declines:        m.declines.Load(),
		KernelFallbacks: m.fallbacks.Load(),
		ModelGeneration: m.sol.ModelGeneration(),
		Machines:        len(m.layout),
	}
	if f := m.fit.Load(); f != nil {
		st.FitGeneration = f.gen
		st.Pairs = f.pairsTotal
		st.MaxResidualC = f.maxResidual
		for i := range f.machines {
			if f.machines[i].ok {
				st.MachinesOK++
			}
		}
	}
	return st
}

// ResidualTolerance returns the acceptable one-step RMS prediction
// error (residualTol) — the line the model-health alert rule compares
// fit residuals against.
func (m *Model) ResidualTolerance() float64 { return residualTol }

// Counters for daemon metric export (monotonic).
func (m *Model) SamplesTotal() uint64         { return m.samples.Load() }
func (m *Model) FitsTotal() uint64            { return m.fits.Load() }
func (m *Model) QueriesTotal() uint64         { return m.queries.Load() }
func (m *Model) DeclinesTotal() uint64        { return m.declines.Load() }
func (m *Model) KernelFallbacksTotal() uint64 { return m.fallbacks.Load() }

// machineUtil locates a utilization stream in a machine's layout.
func (m *Model) machineUtil(mi int, src model.UtilSource) (int, bool) {
	for i, u := range m.layout[mi].Utils {
		if u == src {
			return i, true
		}
	}
	return 0, false
}
