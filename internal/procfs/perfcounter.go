package procfs

import (
	"fmt"
	"sync"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/thermo"
)

// CounterSource reads cumulative processor performance-counter values.
// On the paper's Pentium 4 this was Bellosa's performance-counter
// infrastructure; tests and emulation use SyntheticCounters.
type CounterSource interface {
	ReadCounters() (map[string]uint64, error)
}

// PerfCounterSampler is the Section 2.3 "Mercury for modern
// processors" monitord front end: instead of high-level CPU
// utilization it reads performance-counter deltas, converts each event
// to energy, and reports the resulting average power as a synthetic
// "low-level utilization" in the [Pbase, Pmax] range — so the solver
// needs no modification. Disk/network streams come from an optional
// fallback sampler.
type PerfCounterSampler struct {
	mu       sync.Mutex
	src      CounterSource
	model    *thermo.PerfCounterModel
	fallback Sampler
	now      func() time.Time

	havePrev bool
	prev     map[string]uint64
	prevWall time.Time
	out      []model.UtilSample // Sample's result
}

// NewPerfCounterSampler builds the sampler. fallback may be nil if
// only CPU utilization is needed; now is overridable for tests (nil
// selects time.Now).
func NewPerfCounterSampler(src CounterSource, pm *thermo.PerfCounterModel, fallback Sampler, now func() time.Time) (*PerfCounterSampler, error) {
	if src == nil {
		return nil, fmt.Errorf("procfs: counter source required")
	}
	if pm == nil {
		return nil, fmt.Errorf("procfs: perf-counter model required")
	}
	if now == nil {
		now = time.Now
	}
	return &PerfCounterSampler{src: src, model: pm, fallback: fallback, now: now}, nil
}

// Sample implements Sampler. The first call establishes the counter
// baseline and reports zero CPU utilization.
func (p *PerfCounterSampler) Sample() ([]model.UtilSample, error) {
	p.mu.Lock()
	defer p.mu.Unlock()

	p.out = p.out[:0]
	if p.fallback != nil {
		fb, err := p.fallback.Sample()
		if err != nil {
			return nil, err
		}
		p.out = append(p.out, fb...)
	}

	cur, err := p.src.ReadCounters()
	if err != nil {
		return nil, fmt.Errorf("procfs: counters: %w", err)
	}
	wall := p.now()
	if !p.havePrev {
		p.prev, p.prevWall, p.havePrev = cur, wall, true
		p.out = setSample(p.out, model.UtilCPU, 0)
		return p.out, nil
	}
	interval := wall.Sub(p.prevWall)
	deltas := map[string]uint64{}
	for ev, v := range cur {
		if prev, ok := p.prev[ev]; ok && v >= prev {
			deltas[ev] = v - prev
		}
	}
	p.prev, p.prevWall = cur, wall

	u, err := p.model.Utilization(thermo.PerfCounterSample{Counts: deltas, Interval: interval})
	if err != nil {
		return nil, err
	}
	// The counter-derived value replaces whatever the fallback said
	// about the CPU.
	p.out = setSample(p.out, model.UtilCPU, u)
	return p.out, nil
}

// SyntheticCounters is a programmable CounterSource: tests and
// emulations advance the counters to model event activity.
type SyntheticCounters struct {
	mu     sync.Mutex
	counts map[string]uint64
}

// NewSyntheticCounters starts all named events at zero.
func NewSyntheticCounters(events ...string) *SyntheticCounters {
	s := &SyntheticCounters{counts: map[string]uint64{}}
	for _, ev := range events {
		s.counts[ev] = 0
	}
	return s
}

// Add advances one event's cumulative count.
func (s *SyntheticCounters) Add(event string, n uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counts[event] += n
}

// ReadCounters implements CounterSource.
func (s *SyntheticCounters) ReadCounters() (map[string]uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.counts))
	for k, v := range s.counts {
		out[k] = v
	}
	return out, nil
}
