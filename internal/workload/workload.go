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

func (c WebConfig) withDefaults() WebConfig {
	if c.Duration <= 0 {
		c.Duration = 2000 * time.Second
	}
	if c.PeakRPS <= 0 {
		c.PeakRPS = 100
	}
	if c.ValleyShare <= 0 || c.ValleyShare > 1 {
		c.ValleyShare = 0.15
	}
	if c.DynamicShare <= 0 || c.DynamicShare > 1 {
		// The zero value selects the paper's 30% dynamic-content mix.
		c.DynamicShare = 0.3
	}
	return c
}

// Rate returns the instantaneous arrival rate at offset t. The shape
// mimics the paper's Internet-service pattern: a quiet night at both
// ends of the trace, a morning ramp, and a sustained afternoon plateau
// at the peak rate (Figure 11's utilizations stay high for several
// hundred seconds before subsiding).
func (c WebConfig) Rate(t time.Duration) float64 {
	c = c.withDefaults()
	x := float64(t) / float64(c.Duration)
	if x < 0 {
		x = 0
	}
	if x > 1 {
		x = 1
	}
	const (
		rampStart    = 0.12 // end of the night valley
		plateauStart = 0.42 // morning ramp complete
		plateauEnd   = 0.80 // evening decline begins
	)
	var shape float64
	switch {
	case x < rampStart:
		shape = 0
	case x < plateauStart:
		f := (x - rampStart) / (plateauStart - rampStart)
		shape = 0.5 - 0.5*math.Cos(math.Pi*f)
	case x < plateauEnd:
		shape = 1
	default:
		f := (x - plateauEnd) / (1 - plateauEnd)
		shape = 0.5 + 0.5*math.Cos(math.Pi*f)
	}
	valley := c.PeakRPS * c.ValleyShare
	return valley + (c.PeakRPS-valley)*shape
}

// expectedRequests integrates Rate over the trace by the midpoint rule.
func (c WebConfig) expectedRequests() float64 {
	const steps = 1024
	dt := c.Duration / steps
	var sum float64
	for i := 0; i < steps; i++ {
		sum += c.Rate(time.Duration(i)*dt + dt/2)
	}
	return sum * dt.Seconds()
}

// GenerateWeb produces the request arrivals via thinning of a Poisson
// process at the peak rate.
func GenerateWeb(cfg WebConfig) []Request {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Capacity only: the expected count is the integral of the rate
	// curve, and four standard deviations of Poisson slack make a
	// regrowing append a rare event. The draws do not depend on it.
	n := cfg.expectedRequests()
	out := make([]Request, 0, int(n+4*math.Sqrt(n))+1)
	t := 0.0
	end := cfg.Duration.Seconds()
	for {
		t += rng.ExpFloat64() / cfg.PeakRPS
		if t >= end {
			return out
		}
		at := time.Duration(t * float64(time.Second))
		if rng.Float64()*cfg.PeakRPS > cfg.Rate(at) {
			continue // thinned out
		}
		out = append(out, Request{At: at, Dynamic: rng.Float64() < cfg.DynamicShare})
	}
}
