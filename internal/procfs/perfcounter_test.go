package procfs

import (
	"errors"
	"math"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/thermo"
	"github.com/darklab/mercury/internal/units"
)

func testModel(t *testing.T) *thermo.PerfCounterModel {
	t.Helper()
	pm, err := thermo.NewPerfCounterModel(
		thermo.EventCosts{"uops": 12e-9},
		7,
		thermo.Linear{PBase: 7, PMax: 31},
	)
	if err != nil {
		t.Fatal(err)
	}
	return pm
}

func TestPerfCounterSamplerValidation(t *testing.T) {
	pm := testModel(t)
	if _, err := NewPerfCounterSampler(nil, pm, nil, nil); err == nil {
		t.Error("nil source: want error")
	}
	if _, err := NewPerfCounterSampler(NewSyntheticCounters("uops"), nil, nil, nil); err == nil {
		t.Error("nil model: want error")
	}
}

func TestPerfCounterSamplerDeltas(t *testing.T) {
	src := NewSyntheticCounters("uops")
	t0 := time.Unix(1000, 0)
	clock := fixedClock(t0, t0.Add(time.Second), t0.Add(2*time.Second))
	p, err := NewPerfCounterSampler(src, testModel(t), nil, clock)
	if err != nil {
		t.Fatal(err)
	}

	// Baseline: zero.
	first := sample(t, p)
	if first[model.UtilCPU] != 0 {
		t.Errorf("first sample = %v", first[model.UtilCPU])
	}

	// 1e9 uops at 12nJ over 1s = 12W above idle: (12)/(24) = 50%.
	src.Add("uops", 1_000_000_000)
	second := sample(t, p)
	if got := float64(second[model.UtilCPU]); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("util = %v, want 0.5", got)
	}

	// No activity: back to 0% (idle power maps to Pbase).
	third := sample(t, p)
	if third[model.UtilCPU] != 0 {
		t.Errorf("idle util = %v", third[model.UtilCPU])
	}
}

func TestPerfCounterSamplerMergesFallback(t *testing.T) {
	src := NewSyntheticCounters("uops")
	fb := NewSynthetic(model.UtilCPU, model.UtilDisk, model.UtilNet)
	fb.Set(model.UtilCPU, 0.99) // must be ignored: counters own the CPU
	fb.Set(model.UtilDisk, 0.4)
	fb.Set(model.UtilNet, 0.2)
	t0 := time.Unix(0, 0)
	p, err := NewPerfCounterSampler(src, testModel(t), fb, fixedClock(t0, t0.Add(time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	got := sample(t, p)
	if len(got) != 3 || got[model.UtilDisk] != 0.4 || got[model.UtilNet] != 0.2 {
		t.Errorf("fallback streams = %+v", got)
	}
	if got[model.UtilCPU] != 0 {
		t.Errorf("cpu stream = %v, want counter-derived 0 on baseline", got[model.UtilCPU])
	}
}

type failingCounters struct{}

func (failingCounters) ReadCounters() (map[string]uint64, error) {
	return nil, errors.New("msr unavailable")
}

func TestPerfCounterSamplerSourceError(t *testing.T) {
	p, err := NewPerfCounterSampler(failingCounters{}, testModel(t), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Sample(); err == nil {
		t.Error("failing source: want error")
	}
}

func TestPerfCounterSamplerCounterWrap(t *testing.T) {
	// A counter going backwards (wrap/reset) is treated as no delta
	// rather than a huge one.
	src := NewSyntheticCounters("uops")
	src.Add("uops", 1000)
	t0 := time.Unix(0, 0)
	p, _ := NewPerfCounterSampler(src, testModel(t), nil, fixedClock(t0, t0.Add(time.Second), t0.Add(2*time.Second)))
	p.Sample() // baseline at 1000
	src.mu.Lock()
	src.counts["uops"] = 10 // reset
	src.mu.Unlock()
	got := sample(t, p)
	if got[model.UtilCPU] != 0 {
		t.Errorf("wrapped counter produced util %v", got[model.UtilCPU])
	}
}

func TestPerfCounterSamplerSaturates(t *testing.T) {
	src := NewSyntheticCounters("uops")
	t0 := time.Unix(0, 0)
	p, _ := NewPerfCounterSampler(src, testModel(t), nil, fixedClock(t0, t0.Add(time.Second), t0.Add(2*time.Second)))
	p.Sample()
	src.Add("uops", 1<<40)
	got := sample(t, p)
	if got[model.UtilCPU] != units.Fraction(1) {
		t.Errorf("saturated util = %v, want 1", got[model.UtilCPU])
	}
}
