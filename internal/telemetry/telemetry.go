// Package telemetry is Mercury's observability substrate: a metrics
// registry whose instruments cost nothing to update on hot paths (one
// atomic op, no allocation, no lock), fixed-capacity temperature ring
// buffers sampled off the solver step (temps.go), and a structured,
// clock-stamped thermal event log (events.go).
//
// Every daemon in the stack — solverd, monitord, the Freon daemons —
// owns or shares a Registry and an EventLog; internal/ctl serves both
// over HTTP (/metrics in the Prometheus text exposition format,
// /events as an SSE stream). Because the event log is stamped from an
// injectable clock.Clock, a run on a clock.Virtual produces a
// bit-identical event sequence every time, which is what lets the
// online lockstep harness pin the Figure 11 emergency timeline to a
// golden file. See docs/observability.md.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is
// ready to use; Inc and Add are single atomic ops.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down. The zero value is ready
// to use; Set is a single atomic store.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by d (a CAS loop; still allocation-free).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets chosen at
// registration. Observe is allocation-free: a binary search over the
// bounds plus two atomic ops.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf implied
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile from the bucket counts by linear
// interpolation inside the holding bucket (the classic Prometheus
// histogram_quantile estimate). It returns NaN when the histogram is
// empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return math.NaN()
	}
	// Rounded on its own, so arm64 cannot fuse it into rank-seen and
	// the estimate is bit-identical on every architecture.
	rank := float64(q * float64(total))
	var seen float64
	for i, b := range h.bounds {
		n := float64(h.buckets[i].Load())
		if seen+n >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if n == 0 {
				return b
			}
			return lo + (b-lo)*(rank-seen)/n
		}
		seen += n
	}
	// Quantile falls in the +Inf bucket: clamp to the highest bound.
	if len(h.bounds) == 0 {
		return math.NaN()
	}
	return h.bounds[len(h.bounds)-1]
}

// metricKind is the exposition TYPE of a registered metric.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// metric is one registered series.
type metric struct {
	name string // full series name, may include a {label="..."} block
	base string // name with any label block stripped
	help string
	kind metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // CounterFunc/GaugeFunc sample-at-scrape
}

// Registry holds a daemon's metrics in registration order.
// Registration takes a lock; updating a registered instrument does
// not. Names follow the Prometheus convention and may carry a label
// block, e.g. `mercury_node_temp_celsius{machine="m1",node="cpu"}`.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*metric{}}
}

func (r *Registry) register(m *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byName[m.name]; ok {
		if old.kind != m.kind {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s, was %s", m.name, m.kind, old.kind))
		}
		return old
	}
	if i := strings.IndexByte(m.name, '{'); i >= 0 {
		m.base = m.name[:i]
	} else {
		m.base = m.name
	}
	r.metrics = append(r.metrics, m)
	r.byName[m.name] = m
	return m
}

// Counter registers (or returns the existing) counter under name.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(&metric{name: name, help: help, kind: kindCounter, counter: &Counter{}})
	return m.counter
}

// Gauge registers (or returns the existing) gauge under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.register(&metric{name: name, help: help, kind: kindGauge, gauge: &Gauge{}})
	return m.gauge
}

// CounterFunc registers a counter whose value is read by fn at scrape
// time — the zero-overhead way to expose an existing atomic counter.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: kindCounter, fn: fn})
}

// GaugeFunc registers a gauge whose value is read by fn at scrape
// time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: kindGauge, fn: fn})
}

// Histogram registers a histogram with the given ascending upper
// bounds (an implicit +Inf bucket is added). Histogram names must not
// carry label blocks.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if strings.IndexByte(name, '{') >= 0 {
		panic("telemetry: histogram names must not carry labels: " + name)
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("telemetry: histogram bounds must be ascending: " + name)
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.buckets = make([]atomic.Uint64, len(bounds)+1)
	m := r.register(&metric{name: name, help: help, kind: kindHistogram, hist: h})
	return m.hist
}

// DefBuckets are latency-ish default histogram bounds in seconds.
var DefBuckets = []float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10}

// WritePrometheus renders every metric in the text exposition format
// (version 0.0.4), in registration order. HELP/TYPE headers are
// emitted once per base name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()

	var b strings.Builder
	lastBase := ""
	for _, m := range metrics {
		if m.base != lastBase {
			if m.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", m.base, m.help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.base, m.kind)
			lastBase = m.base
		}
		switch {
		case m.fn != nil:
			fmt.Fprintf(&b, "%s %s\n", m.name, fmtFloat(m.fn()))
		case m.counter != nil:
			fmt.Fprintf(&b, "%s %d\n", m.name, m.counter.Value())
		case m.gauge != nil:
			fmt.Fprintf(&b, "%s %s\n", m.name, fmtFloat(m.gauge.Value()))
		case m.hist != nil:
			var cum uint64
			for i, bound := range m.hist.bounds {
				cum += m.hist.buckets[i].Load()
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", m.name, fmtFloat(bound), cum)
			}
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", m.name, m.hist.Count())
			fmt.Fprintf(&b, "%s_sum %s\n", m.name, fmtFloat(m.hist.Sum()))
			fmt.Fprintf(&b, "%s_count %d\n", m.name, m.hist.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// fmtFloat renders a float the way Prometheus clients do: shortest
// exact decimal form.
func fmtFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return fmt.Sprintf("%g", v)
}
