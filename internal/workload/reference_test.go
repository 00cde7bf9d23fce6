package workload

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refWebGen is the web-trace generator as it was before it thinned
// against a rate envelope: every candidate above the valley rate
// evaluates the curve, cosine and all. It is the oracle WebGen is
// checked against, with its own frozen copy of the curve.
type refWebGen struct {
	cfg    WebConfig
	rng    *rand.Rand
	valley float64
	end    float64
	t      float64
	at     time.Duration
	held   bool
	done   bool
}

func newRefWebGen(cfg WebConfig) *refWebGen {
	cfg = cfg.withDefaults()
	return &refWebGen{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		valley: cfg.PeakRPS * cfg.ValleyShare,
		end:    cfg.Duration.Seconds(),
	}
}

func refRate(c WebConfig, t time.Duration) float64 {
	x := float64(t) / float64(c.Duration)
	if x < 0 {
		x = 0
	}
	if x > 1 {
		x = 1
	}
	const (
		rampStart    = 0.12
		plateauStart = 0.42
		plateauEnd   = 0.80
	)
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

func (g *refWebGen) Next(dst []Request, limit time.Duration) []Request {
	for {
		if !g.held {
			if g.done {
				return dst
			}
			g.t += g.rng.ExpFloat64() / g.cfg.PeakRPS
			if g.t >= g.end {
				g.done = true
				return dst
			}
			g.at, g.held = time.Duration(g.t*float64(time.Second)), true
		}
		if g.at >= limit {
			return dst
		}
		g.held = false
		if u := g.rng.Float64() * g.cfg.PeakRPS; u > g.valley && u > refRate(g.cfg, g.at) {
			continue
		}
		dst = append(dst, Request{At: g.at, Dynamic: g.rng.Float64() < g.cfg.DynamicShare})
	}
}

// maxFuzzCandidates bounds a fuzzed trace's expected candidate count
// (Duration x PeakRPS), so one input runs in milliseconds.
const maxFuzzCandidates = 200000

// FuzzWebGen runs a fuzzed config through WebGen and the frozen
// reference under one fuzzed pull schedule: each byte advances the
// limit by that many 64ths of the trace (0 repeats the limit), and a
// final pull past the end drains both. Every pull must return the same
// arrivals.
func FuzzWebGen(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	schedule := []byte{1, 0, 3, 64, 0, 200, 7}
	for _, c := range []struct {
		d                     time.Duration
		peak, valley, dynamic float64
		seed                  int64
	}{
		{2000 * time.Second, 4 * 0.7 / 0.0089, 0, 0, 1},
		{150 * time.Second, 64 * 0.7 / 0.0089, 0, 0, 7},
		{10 * time.Second, 20, 0, 0, 3},
		{600 * time.Second, 50, 1, 0, 5},
		{0, nan, inf, -inf, 11},
		{time.Microsecond, 1e9, 0.5, 0.5, 2},
		{1000 * time.Second, 100, 1e-300, 1, 4},
		{1000 * time.Second, 100, 5e-324, 0.9, 6},
		{math.MaxInt64, 1e-7, 0.3, 0.3, 8},
	} {
		f.Add(int64(c.d), c.peak, c.valley, c.dynamic, c.seed, schedule)
	}
	f.Fuzz(func(t *testing.T, d int64, peak, valley, dynamic float64, seed int64, schedule []byte) {
		cfg := WebConfig{Duration: time.Duration(d), PeakRPS: peak, ValleyShare: valley, DynamicShare: dynamic, Seed: seed}
		if def := cfg.withDefaults(); def.Duration.Seconds()*def.PeakRPS > maxFuzzCandidates {
			return
		}
		got, want := NewWebGen(cfg), newRefWebGen(cfg)
		step := max(got.cfg.Duration/64, 1)
		var gs, ws []Request
		limit := time.Duration(0)
		for _, b := range append(schedule, 0xff, 0xff) {
			if inc := time.Duration(b) * step; b == 0xff || limit > math.MaxInt64-inc {
				limit = math.MaxInt64
			} else {
				limit += inc
			}
			gs, ws = got.Next(gs, limit), want.Next(ws, limit)
			if len(gs) != len(ws) {
				t.Fatalf("%+v: %d arrivals before %v, reference %d", cfg, len(gs), limit, len(ws))
			}
		}
		if !slices.Equal(gs, ws) {
			t.Fatalf("%+v: trace differs from the reference", cfg)
		}
	})
}

// TestEnvelopeContainsRate samples the rate densely across every
// envelope slice, at each slice's edges and around the curve's
// breakpoints, and checks that the slice Next would consult bounds it.
func TestEnvelopeContainsRate(t *testing.T) {
	for _, cfg := range []WebConfig{
		{Duration: 2000 * time.Second, PeakRPS: 4 * 0.7 / 0.0089},
		{Duration: 150 * time.Second, PeakRPS: 64 * 0.7 / 0.0089},
		{Duration: 10 * time.Second, PeakRPS: 20},
		{Duration: 600 * time.Second, PeakRPS: 50, ValleyShare: 1},
		{Duration: 6 * time.Hour, PeakRPS: 250},
		{Duration: 1000 * time.Second, PeakRPS: 100, ValleyShare: 1e-300},
		{Duration: 1000 * time.Second, PeakRPS: 1e300, ValleyShare: 0.5},
		{Duration: 1023 * time.Nanosecond, PeakRPS: 100},
		{Duration: 1000 * time.Second, PeakRPS: 1e-310},
		{Duration: 1000 * time.Second, PeakRPS: 1e-300, ValleyShare: 1e-10},
		{Duration: math.MaxInt64, PeakRPS: 100},
	} {
		g := NewWebGen(cfg)
		d := g.cfg.Duration
		check := func(at time.Duration) {
			if at < 0 || at > d {
				return
			}
			b := g.bucket(at)
			if r, e := g.cfg.rate(at), g.env[b]; !(e.lo <= r && r <= e.hi) {
				t.Fatalf("%v peak %g valley share %g: rate(%v) = %v outside slice %d's [%v, %v]",
					d, g.cfg.PeakRPS, g.cfg.ValleyShare, at, r, b, e.lo, e.hi)
			}
		}
		const perSlice = 64
		for i := 0; i <= envBuckets*perSlice; i++ {
			at := time.Duration(float64(d) * (float64(i) / (envBuckets * perSlice)))
			for _, near := range []time.Duration{-1, 0, 1} {
				check(at + near)
			}
		}
		for _, x := range []float64{rampStart, plateauStart, plateauEnd, 1} {
			at := time.Duration(float64(d) * x)
			for near := time.Duration(-64); near <= 64; near++ {
				check(at + near)
			}
		}
	}
}
