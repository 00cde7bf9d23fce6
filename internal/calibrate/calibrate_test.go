package calibrate

import (
	"testing"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/physical"
	"github.com/darklab/mercury/internal/stats"
	"github.com/darklab/mercury/internal/trace"
	"github.com/darklab/mercury/internal/units"
	"github.com/darklab/mercury/internal/workload"
)

func TestCalibrationImprovesFit(t *testing.T) {
	machine := "server"
	ref := physical.NewRefServer(42)
	tr := workload.Square(machine, model.UtilCPU,
		[]units.Fraction{0.5, 1.0}, 900*time.Second, 500*time.Second)
	meas := ref.Replay(tr, 10*time.Second)
	base := model.DefaultServer(machine)
	targets := []Target{{Node: model.NodeCPUAir, Measured: meas.CPUAir}}

	_, preRMSE, _, err := Evaluate(base, tr, targets)
	if err != nil {
		t.Fatal(err)
	}
	fitted, res, err := Calibrate(base, tr, targets, DefaultCPUParams(), Options{Rounds: 2, GridPoints: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.RMSE > preRMSE {
		t.Errorf("calibration worsened fit: %v -> %v", preRMSE, res.RMSE)
	}
	if res.MaxAbs > 1.0 {
		t.Errorf("post-calibration max error = %v, want <= 1C", res.MaxAbs)
	}
	if res.Evals == 0 {
		t.Error("no evaluations recorded")
	}
	if err := fitted.Validate(); err != nil {
		t.Errorf("fitted machine invalid: %v", err)
	}
	// The input machine is untouched.
	if base.Component(model.NodeCPU).Power.Max() != 31 {
		t.Error("Calibrate mutated its input")
	}
	for _, name := range []string{"k_cpu_air", "cpu_pmax", "fan_flow"} {
		if _, ok := res.Params[name]; !ok {
			t.Errorf("missing fitted parameter %q", name)
		}
	}
}

func TestCalibratedModelGeneralizes(t *testing.T) {
	// The Figure 7 mechanic in miniature: calibrate on the CPU
	// microbenchmark, validate on a combined benchmark without
	// recalibration, expect ~1C accuracy.
	machine := "server"
	ref := physical.NewRefServer(42)
	cal := workload.Square(machine, model.UtilCPU,
		[]units.Fraction{0.25, 0.75, 1.0}, 900*time.Second, 400*time.Second)
	meas := ref.Replay(cal, 10*time.Second)
	fitted, _, err := Calibrate(model.DefaultServer(machine), cal,
		[]Target{{Node: model.NodeCPUAir, Measured: meas.CPUAir}},
		DefaultCPUParams(), Options{Rounds: 2, GridPoints: 7})
	if err != nil {
		t.Fatal(err)
	}

	vref := physical.NewRefServer(42)
	comb := workload.Combined(machine, 7, 2000*time.Second, 50*time.Second)
	vmeas := vref.Replay(comb, 10*time.Second)
	_, _, maxAbs, err := Evaluate(fitted, comb,
		[]Target{{Node: model.NodeCPUAir, Measured: vmeas.CPUAir}})
	if err != nil {
		t.Fatal(err)
	}
	if maxAbs > 1.2 {
		t.Errorf("validation max error = %v, want about 1C", maxAbs)
	}
}

func TestCalibrateValidation(t *testing.T) {
	machine := "server"
	tr := workload.Square(machine, model.UtilCPU, []units.Fraction{1}, 100*time.Second, 100*time.Second)
	meas := stats.NewSeries("m")
	meas.Add(0, 21.6)
	meas.Add(100*time.Second, 25)
	base := model.DefaultServer(machine)
	tgt := []Target{{Node: model.NodeCPUAir, Measured: meas}}

	if _, _, err := Calibrate(base, tr, nil, DefaultCPUParams(), Options{}); err == nil {
		t.Error("no targets: want error")
	}
	if _, _, err := Calibrate(base, tr, tgt, nil, Options{}); err == nil {
		t.Error("no params: want error")
	}
	bad := DefaultCPUParams()
	bad[0].Min, bad[0].Max = 5, 5
	if _, _, err := Calibrate(base, tr, tgt, bad, Options{}); err == nil {
		t.Error("empty param range: want error")
	}
	if _, _, err := Calibrate(base, &trace.Trace{}, tgt, DefaultCPUParams(), Options{}); err == nil {
		t.Error("empty trace: want error")
	}
	if _, _, _, err := Evaluate(base, tr, []Target{{Node: "ghost", Measured: meas}}); err == nil {
		t.Error("unknown node: want error")
	}
}

func TestDiskParams(t *testing.T) {
	m := model.DefaultServer("server")
	for _, p := range DefaultDiskParams() {
		v := p.Get(m)
		if v < p.Min || v > p.Max {
			t.Errorf("param %q default %v outside [%v,%v]", p.Name, v, p.Min, p.Max)
		}
		p.Set(m, p.Min)
		if got := p.Get(m); got != p.Min {
			t.Errorf("param %q set/get mismatch: %v", p.Name, got)
		}
	}
	if err := m.Validate(); err != nil {
		t.Errorf("machine invalid after param sets: %v", err)
	}
}

func TestPowerParamKeepsOrdering(t *testing.T) {
	m := model.DefaultServer("server")
	params := DefaultCPUParams()
	var pbase, pmax Param
	for _, p := range params {
		switch p.Name {
		case "cpu_pbase":
			pbase = p
		case "cpu_pmax":
			pmax = p
		}
	}
	// Forcing base above max must not create an invalid power model.
	pmax.Set(m, 20)
	pbase.Set(m, 15) // fine
	pbase.Set(m, 15)
	pmax.Set(m, 16)
	cpu := m.Component(model.NodeCPU)
	if cpu.Power.Base() > cpu.Power.Max() {
		t.Errorf("power ordering violated: %v > %v", cpu.Power.Base(), cpu.Power.Max())
	}
	if err := m.Validate(); err != nil {
		t.Errorf("invalid after power params: %v", err)
	}
}
