// Package workload generates the workloads of the paper's evaluation:
// the CPU and disk calibration microbenchmarks of Figures 5 and 6
// (square waves through utilization levels interspersed with idle
// periods), the combined validation benchmark of Figures 7 and 8
// ("widely different utilizations over time ... utilizations change
// constantly and quickly"), and the synthetic web trace of Section 5
// (diurnal valleys and peaks, 30% dynamic CGI requests of 25 ms).
package workload

import (
	"math"
	"math/rand"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/trace"
	"github.com/darklab/mercury/internal/units"
)

// Square builds a square-wave utilization schedule: each level is held
// for hold, followed by idle for idle, repeating through levels. This
// is the shape of the paper's calibration microbenchmarks.
func Square(machine string, src model.UtilSource, levels []units.Fraction, hold, idle time.Duration) *trace.Trace {
	tr := &trace.Trace{}
	at := time.Duration(0)
	add := func(u units.Fraction) {
		tr.Records = append(tr.Records, trace.Record{At: at, Machine: machine, Source: src, Util: u.Clamp()})
	}
	for _, lv := range levels {
		add(lv)
		at += hold
		add(0)
		at += idle
	}
	// Close the trace so Duration covers the final idle period.
	add(0)
	return tr
}

// CPUCalibration is the Figure 5 microbenchmark: the CPU stepped
// through increasing utilization levels with idle gaps, ~14000 s total.
func CPUCalibration(machine string) *trace.Trace {
	return Square(machine, model.UtilCPU,
		[]units.Fraction{0.25, 0.5, 0.75, 1.0, 0.6},
		1800*time.Second, 1000*time.Second)
}

// DiskCalibration is the Figure 6 microbenchmark for the disk.
func DiskCalibration(machine string) *trace.Trace {
	return Square(machine, model.UtilDisk,
		[]units.Fraction{0.25, 0.5, 0.75, 1.0, 0.6},
		1800*time.Second, 1000*time.Second)
}

// Combined is the Figures 7/8 validation benchmark: both components
// exercised at once with quickly changing, widely different
// utilizations. Deterministic for a given seed. Levels change every
// interval (the paper's benchmark shifts every few tens of seconds).
func Combined(machine string, seed int64, duration, interval time.Duration) *trace.Trace {
	if interval <= 0 {
		interval = 50 * time.Second
	}
	rng := rand.New(rand.NewSource(seed))
	tr := &trace.Trace{}
	for at := time.Duration(0); at <= duration; at += interval {
		cpu := units.Fraction(rng.Float64())
		disk := units.Fraction(rng.Float64())
		// Occasionally slam to the rails, as real phase changes do.
		switch rng.Intn(5) {
		case 0:
			cpu = 1
		case 1:
			cpu = 0
		}
		tr.Records = append(tr.Records,
			trace.Record{At: at, Machine: machine, Source: model.UtilCPU, Util: cpu},
			trace.Record{At: at, Machine: machine, Source: model.UtilDisk, Util: disk},
		)
	}
	return tr
}

// Request is one client request of the web workload.
type Request struct {
	// At is the arrival time relative to trace start.
	At time.Duration
	// Dynamic marks CGI requests that compute for ~25 ms; static
	// requests are cheap CPU plus a disk access.
	Dynamic bool
}

// WebConfig shapes the Section 5 synthetic web trace: "the timing of
// the requests mimics the well-known traffic pattern of most Internet
// services, consisting of recurring load valleys (over night) followed
// by load peaks (in the afternoon)".
type WebConfig struct {
	// Duration of the trace. The Freon runs use 2000 s.
	Duration time.Duration
	// PeakRPS is the arrival rate at the load peak.
	PeakRPS float64
	// ValleyShare is the valley rate as a share of peak (default 0.15).
	ValleyShare float64
	// DynamicShare is the fraction of dynamic-content requests
	// (default 0.3).
	DynamicShare float64
	// Seed makes the trace reproducible.
	Seed int64
}

// withDefaults fills every unset field. A non-finite PeakRPS,
// ValleyShare or DynamicShare counts as unset: each check asks whether
// the value is in range, which NaN never is, and an infinite rate would
// make the trace unbounded.
func (c WebConfig) withDefaults() WebConfig {
	if c.Duration <= 0 {
		c.Duration = 2000 * time.Second
	}
	if !(c.PeakRPS > 0) || math.IsInf(c.PeakRPS, 1) {
		c.PeakRPS = 100
	}
	if !(c.ValleyShare > 0 && c.ValleyShare <= 1) {
		c.ValleyShare = 0.15
	}
	if !(c.DynamicShare > 0 && c.DynamicShare <= 1) {
		// The zero value selects the paper's 30% dynamic-content mix.
		c.DynamicShare = 0.3
	}
	return c
}

// rate is Rate on a config withDefaults has already filled.
func (c WebConfig) rate(t time.Duration) float64 {
	x := float64(t) / float64(c.Duration)
	if x < 0 {
		x = 0
	}
	if x > 1 {
		x = 1
	}
	return c.curve(x)
}

// The curve's breakpoints, as shares of the trace.
const (
	rampStart    = 0.12 // end of the night valley
	plateauStart = 0.42 // morning ramp complete
	plateauEnd   = 0.80 // evening decline begins
)

// curve is the rate at the share x in [0, 1] of the trace. It is
// continuous, and monotone between consecutive breakpoints.
func (c WebConfig) curve(x float64) float64 {
	var shape float64
	switch {
	case x < rampStart:
		shape = 0
	case x < plateauStart:
		f := (x - rampStart) / (plateauStart - rampStart)
		shape = 0.5 - float64(0.5*math.Cos(math.Pi*f))
	case x < plateauEnd:
		shape = 1
	default:
		f := (x - plateauEnd) / (1 - plateauEnd)
		shape = 0.5 + float64(0.5*math.Cos(math.Pi*f))
	}
	valley := float64(c.PeakRPS * c.ValleyShare)
	return valley + float64((c.PeakRPS-valley)*shape)
}

// expectedRequests integrates the rate over the trace by the midpoint
// rule.
func (c WebConfig) expectedRequests() float64 {
	const steps = 1024
	dt := c.Duration / steps
	var sum float64
	for i := 0; i < steps; i++ {
		sum += c.rate(time.Duration(i)*dt + dt/2)
	}
	return sum * dt.Seconds()
}

// GenerateWeb produces the request arrivals via thinning of a Poisson
// process at the peak rate: the whole of a WebGen's stream in one call.
func GenerateWeb(cfg WebConfig) []Request {
	g := NewWebGen(cfg)
	return g.Next(make([]Request, 0, g.SizeHint()), math.MaxInt64)
}

// WebGen generates the web trace incrementally, in arrival order, so a
// consumer can take it one window at a time. Concatenating its Next
// calls yields exactly GenerateWeb's trace for the same config, however
// the limits are chosen.
type WebGen struct {
	cfg WebConfig // defaulted
	rng *rand.Rand
	end float64 // cfg.Duration in seconds

	t float64 // the last candidate's arrival, in seconds
	// at is a candidate drawn but not yet thinned, when held: one Next
	// call stopped at it because it falls at or after that call's limit.
	at   time.Duration
	held bool
	done bool

	// env bounds cfg.rate over each of envBuckets equal slices of the
	// trace; scale maps an arrival's nanoseconds to its slice.
	env   [envBuckets]envelope
	scale float64
}

// envBuckets is the number of slices of the rate envelope.
const envBuckets = 1024

// envMargin widens each envelope bound, relative to its value, by far
// more than the rounding of cfg.rate (a few ulps).
const envMargin = 1e-9

// envelope holds a slice's bounds: cfg.rate(at) is in [lo, hi] for
// every arrival at that falls in the slice.
type envelope struct{ lo, hi float64 }

// NewWebGen starts the trace for cfg at offset 0.
func NewWebGen(cfg WebConfig) *WebGen {
	cfg = cfg.withDefaults()
	g := &WebGen{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		end:   cfg.Duration.Seconds(),
		scale: envBuckets / float64(cfg.Duration),
	}
	g.fillEnvelope()
	return g
}

// fillEnvelope bounds the rate over each slice of the trace. The curve
// is monotone between breakpoints, so over an interval it takes its
// extremes at the interval's ends or at a breakpoint inside. Each
// slice's interval is widened by one slice on either side, which covers
// an arrival whose slice index rounds into a neighbour, and each bound
// by envMargin, which covers cfg.rate's rounding. The lower bound is
// never below the valley rate, as the rate never is: it is valley +
// (peak-valley) * shape with both factors >= 0, and adding a
// non-negative number never rounds below valley.
func (g *WebGen) fillEnvelope() {
	c := &g.cfg
	valley := c.PeakRPS * c.ValleyShare
	var edge [envBuckets + 1]float64
	for k := range edge {
		edge[k] = c.curve(float64(k) / envBuckets)
	}
	breaks := [...]float64{rampStart, plateauStart, plateauEnd}
	for b := range g.env {
		first, last := max(b-1, 0), min(b+2, envBuckets)
		lo, hi := edge[first], edge[first]
		for k := first + 1; k <= last; k++ {
			lo, hi = min(lo, edge[k]), max(hi, edge[k])
		}
		from, to := float64(first)/envBuckets, float64(last)/envBuckets
		for _, x := range breaks {
			if from <= x && x <= to {
				r := c.curve(x)
				lo, hi = min(lo, r), max(hi, r)
			}
		}
		g.env[b] = envelope{
			lo: max(lo-float64(lo*envMargin), valley),
			hi: hi + float64(hi*envMargin),
		}
	}
}

// bucket is the envelope slice that holds an arrival at offset at; an
// arrival that rounds to the trace's end falls in the last.
func (g *WebGen) bucket(at time.Duration) int {
	return min(int(float64(at)*g.scale), envBuckets-1)
}

// SizeHint is a capacity for the whole trace. The expected count is the
// integral of the rate curve, and four standard deviations of Poisson
// slack make a regrowing append a rare event. The draws do not depend
// on it.
func (g *WebGen) SizeHint() int {
	n := g.cfg.expectedRequests()
	return int(n+float64(4*math.Sqrt(n))) + 1
}

// Next appends to dst every arrival not yet returned with At < limit,
// and returns dst. A candidate at or after limit is held, before its
// thinning draws are taken, for the next call, so the random stream
// sees the same draws in the same order whatever the limits.
//
// A candidate's thinning draw u is kept when u <= cfg.rate(at). The
// envelope answers that comparison for every u outside its slice's
// [lo, hi]; only a draw inside the band evaluates the curve. The
// outcome, and so the trace, is the one a curve evaluation per
// candidate gives.
func (g *WebGen) Next(dst []Request, limit time.Duration) []Request {
	if g.done {
		return dst
	}
	rng, peak, end, dynamic := g.rng, g.cfg.PeakRPS, g.end, g.cfg.DynamicShare
	t, at, held := g.t, g.at, g.held
	for {
		if !held {
			t += rng.ExpFloat64() / peak
			if t >= end {
				g.done = true
				break
			}
			at, held = time.Duration(t*float64(time.Second)), true
		}
		if at >= limit {
			break
		}
		held = false
		u := rng.Float64() * peak
		if e := &g.env[g.bucket(at)]; u > e.lo && (u > e.hi || u > g.cfg.rate(at)) {
			continue // thinned out
		}
		dst = append(dst, Request{At: at, Dynamic: rng.Float64() < dynamic})
	}
	g.t, g.at, g.held = t, at, held
	return dst
}
