package thermo

import (
	"fmt"
	"time"

	"github.com/darklab/mercury/internal/units"
)

// EventCosts maps a processor performance event to the energy one
// occurrence of the event costs. Section 2.3 of the paper describes a
// Pentium 4 version of monitord that translates each observed event
// into an estimated energy (after Bellosa et al.'s event-driven energy
// accounting) instead of using high-level utilization.
type EventCosts map[string]units.Joules

// PerfCounterSample is one monitoring interval's worth of performance
// counter deltas.
type PerfCounterSample struct {
	// Counts holds the number of occurrences of each event during the
	// interval, keyed by event name (e.g. "uops_retired", "l2_miss").
	Counts map[string]uint64
	// Interval is the sampling interval the counts were observed over.
	Interval time.Duration
}

// PerfCounterModel estimates CPU power from performance-counter deltas
// and converts the estimate into the synthetic "low-level utilization"
// that the unmodified Mercury solver consumes: 0% maps to Pbase and
// 100% maps to Pmax (Section 2.3).
type PerfCounterModel struct {
	// Costs holds per-event energy costs.
	Costs EventCosts
	// IdlePower is consumed regardless of event activity.
	IdlePower units.Watts
	// Range is the linear model whose [Pbase, Pmax] range calibrates
	// the reported utilization.
	Range Linear
}

// NewPerfCounterModel validates and builds a PerfCounterModel.
func NewPerfCounterModel(costs EventCosts, idle units.Watts, rng Linear) (*PerfCounterModel, error) {
	if len(costs) == 0 {
		return nil, fmt.Errorf("thermo: perf-counter model needs at least one event cost")
	}
	for ev, j := range costs {
		if j < 0 {
			return nil, fmt.Errorf("thermo: negative energy cost for event %q: %v", ev, j)
		}
	}
	if idle < 0 {
		return nil, fmt.Errorf("thermo: negative idle power %v", idle)
	}
	if rng.PMax <= rng.PBase {
		return nil, fmt.Errorf("thermo: perf-counter model needs Pmax > Pbase, got %v..%v", rng.PBase, rng.PMax)
	}
	return &PerfCounterModel{Costs: costs, IdlePower: idle, Range: rng}, nil
}

// EstimatePower converts one sample into an average power over the
// sample's interval: idle power plus the per-event energies divided by
// the interval. Unknown events are ignored, mirroring the daemon's
// behaviour of only accounting for calibrated events.
func (m *PerfCounterModel) EstimatePower(s PerfCounterSample) (units.Watts, error) {
	if s.Interval <= 0 {
		return 0, fmt.Errorf("thermo: non-positive sample interval %v", s.Interval)
	}
	var energy units.Joules
	for ev, n := range s.Counts {
		cost, ok := m.Costs[ev]
		if !ok {
			continue
		}
		energy += units.Joules(float64(n) * float64(cost)) // per-event cost times count
	}
	return m.IdlePower + energy.Over(s.Interval), nil
}

// Utilization converts one sample into the synthetic low-level
// utilization reported to the solver: the estimated power mapped
// linearly onto [Pbase, Pmax] and clamped.
func (m *PerfCounterModel) Utilization(s PerfCounterSample) (units.Fraction, error) {
	p, err := m.EstimatePower(s)
	if err != nil {
		return 0, err
	}
	return m.Range.Utilization(p), nil
}
