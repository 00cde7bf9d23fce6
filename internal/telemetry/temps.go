package telemetry

import (
	"sync"
	"time"

	"github.com/darklab/mercury/internal/stats"
)

// TempProbe names one monitored temperature: a (machine, node) pair of
// the thermal model.
type TempProbe struct {
	Machine string `json:"machine"`
	Node    string `json:"node"`
}

// TempTable is a set of per-node temperature ring buffers sampled off
// the solver step. All probes share one fixed-capacity ring of sample
// columns — one timestamp plus one value per probe per column — so a
// whole sample is a single lock, one timestamp store, and a bulk copy
// into a preallocated slab: nothing on the sampling path allocates,
// which is what keeps telemetry-enabled stepping at 0 allocs/op (see
// BenchmarkScaleoutStep and docs/observability.md).
//
// Timestamps are whatever clock the sampler passes in — the solver's
// emulated time in solverd — so a virtual-time run records a
// deterministic table.
type TempTable struct {
	mu     sync.Mutex
	probes []TempProbe
	cap    int
	at     []time.Duration // ring of sample times, len cap
	vals   []float64       // column-major slab: sample k is vals[k*np : (k+1)*np]
	head   int             // next column to write
	n      int             // filled columns, <= cap
	sink   func(at time.Duration, vals []float64)
}

// NewTempTable builds a table for the given probes. capacity is the
// number of retained samples per probe; it defaults to 360 when <= 0
// (an hour of 10-second samples).
func NewTempTable(probes []TempProbe, capacity int) *TempTable {
	if capacity <= 0 {
		capacity = 360
	}
	return &TempTable{
		probes: append([]TempProbe(nil), probes...),
		cap:    capacity,
		at:     make([]time.Duration, capacity),
		vals:   make([]float64, capacity*len(probes)),
	}
}

// Probes returns the probe list in column order.
func (t *TempTable) Probes() []TempProbe { return append([]TempProbe(nil), t.probes...) }

// Sample records one column: fill is handed the column's value slice
// (length = number of probes) to populate in probe order and returns
// the count written; solver.(*Solver).ReadAllTemps matches this
// signature. Sample never allocates.
func (t *TempTable) Sample(at time.Duration, fill func(dst []float64) int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	np := len(t.probes)
	t.at[t.head] = at
	col := t.vals[t.head*np : (t.head+1)*np]
	fill(col)
	if t.sink != nil {
		t.sink(at, col)
	}
	t.head = (t.head + 1) % t.cap
	if t.n < t.cap {
		t.n++
	}
}

// SetSink installs a function called once per sampled column, under
// the table's lock, with the freshly-filled value slice in probe
// order. The slice is only valid for the duration of the call — the
// sink must copy synchronously (the flight recorder encodes into its
// ring cells before returning) and must never block. Pass nil to
// detach.
func (t *TempTable) SetSink(sink func(at time.Duration, vals []float64)) {
	t.mu.Lock()
	t.sink = sink
	t.mu.Unlock()
}

// Series returns a copy of probe i's retained samples, oldest first.
func (t *TempTable) Series(i int) (at []time.Duration, vals []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	np := len(t.probes)
	at = make([]time.Duration, 0, t.n)
	vals = make([]float64, 0, t.n)
	start := t.head - t.n
	if start < 0 {
		start += t.cap
	}
	for k := 0; k < t.n; k++ {
		col := (start + k) % t.cap
		at = append(at, t.at[col])
		vals = append(vals, t.vals[col*np+i])
	}
	return at, vals
}

// TempSummary condenses one probe's retained samples for /state.
type TempSummary struct {
	TempProbe
	N    int     `json:"n"`
	Last float64 `json:"last"`
	Min  float64 `json:"min"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
}

// Summaries returns one TempSummary per probe over the retained
// window. Quantiles come from stats.Quantile over the ring contents.
// Probes with no samples yet are omitted — the summaries are served
// as JSON, which cannot carry the NaNs an empty window would produce.
func (t *TempTable) Summaries() []TempSummary {
	out := make([]TempSummary, 0, len(t.probes))
	for i, p := range t.probes {
		_, vals := t.Series(i)
		s := TempSummary{TempProbe: p, N: len(vals)}
		if len(vals) == 0 {
			continue
		}
		s.Last = vals[len(vals)-1]
		s.Min, s.Max = vals[0], vals[0]
		var sum float64
		for _, v := range vals {
			if v < s.Min {
				s.Min = v
			}
			if v > s.Max {
				s.Max = v
			}
			sum += v
		}
		s.Mean = sum / float64(len(vals))
		s.P50 = stats.Quantile(vals, 0.50)
		s.P95 = stats.Quantile(vals, 0.95)
		s.P99 = stats.Quantile(vals, 0.99)
		out = append(out, s)
	}
	return out
}
