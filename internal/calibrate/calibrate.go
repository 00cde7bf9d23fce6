// Package calibrate implements Mercury's calibration phase (Sections
// 2.2 and 3.1): "a single, isolated machine is tested as fully as
// possible, and then the heat- and air-flow constants are tuned until
// the emulated readings match the calibration experiment". The paper
// calibrated by hand in under an hour; this package automates the same
// fit with bounded coordinate descent, which needs no gradients and is
// deterministic.
package calibrate

import (
	"fmt"
	"math"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/stats"
	"github.com/darklab/mercury/internal/thermo"
	"github.com/darklab/mercury/internal/trace"
	"github.com/darklab/mercury/internal/units"
)

// Param is one tunable scalar of a machine model, with bounds that keep
// the search physical.
type Param struct {
	Name     string
	Min, Max float64
	Get      func(m *model.Machine) float64
	Set      func(m *model.Machine, v float64)
}

// Target pairs a Mercury node with the measured series it should track.
type Target struct {
	Node     string
	Measured *stats.Series
}

// The objective replays a trace on a solver stepping every Step and
// samples the emulated temperatures every SampleEvery.
const (
	SampleEvery = 10 * time.Second
	Step        = time.Second
)

// Options tunes the search.
type Options struct {
	// Rounds of coordinate descent; default 3.
	Rounds int
	// GridPoints per parameter per round; default 9.
	GridPoints int
}

func (o Options) withDefaults() Options {
	if o.Rounds <= 0 {
		o.Rounds = 3
	}
	if o.GridPoints <= 1 {
		o.GridPoints = 9
	}
	return o
}

// Result reports the fitted parameters and the residual error on the
// calibration data.
type Result struct {
	Params map[string]float64
	RMSE   float64
	MaxAbs float64
	Evals  int
}

// Calibrate fits params on a copy of base so that replaying the
// utilization trace reproduces the measured target series. It returns
// the fitted machine (base is not modified) and the residuals.
func Calibrate(base *model.Machine, tr *trace.Trace, targets []Target, params []Param, opts Options) (*model.Machine, Result, error) {
	if len(targets) == 0 {
		return nil, Result{}, fmt.Errorf("calibrate: no targets")
	}
	if tr.Duration() <= 0 {
		return nil, Result{}, fmt.Errorf("calibrate: empty utilization trace")
	}
	return search(base, params, opts, func(m *model.Machine) (float64, float64, error) {
		_, rmse, maxAbs, err := Evaluate(m, tr, targets)
		return rmse, maxAbs, err
	})
}

// search is the bounded coordinate descent that Calibrate and
// CalibrateSteady share. On a copy of base, each round sweeps every
// parameter in turn over GridPoints values of an interval around its
// incumbent, halving the interval each round, and keeps the value with
// the lowest objective RMSE. objective returns a machine's RMSE and
// maximum absolute error.
func search(base *model.Machine, params []Param, opts Options, objective func(*model.Machine) (rmse, maxAbs float64, err error)) (*model.Machine, Result, error) {
	opts = opts.withDefaults()
	if len(params) == 0 {
		return nil, Result{}, fmt.Errorf("calibrate: no parameters")
	}
	for _, p := range params {
		if p.Min >= p.Max {
			return nil, Result{}, fmt.Errorf("calibrate: parameter %q has empty range [%v,%v]", p.Name, p.Min, p.Max)
		}
	}

	m := base.Clone(base.Name)
	res := Result{Params: map[string]float64{}}

	eval := func() (float64, float64, error) {
		res.Evals++
		return objective(m)
	}

	best, _, err := eval()
	if err != nil {
		return nil, res, err
	}
	for round := 0; round < opts.Rounds; round++ {
		// The search interval shrinks around the incumbent each round.
		shrink := math.Pow(0.5, float64(round))
		for pi := range params {
			p := &params[pi]
			cur := p.Get(m)
			span := (p.Max - p.Min) * shrink
			lo := math.Max(p.Min, cur-float64(span/2))
			hi := math.Min(p.Max, cur+float64(span/2))
			bestV := cur
			for g := 0; g < opts.GridPoints; g++ {
				v := lo + (hi-lo)*float64(g)/float64(opts.GridPoints-1)
				p.Set(m, v)
				rmse, _, err := eval()
				if err != nil {
					return nil, res, err
				}
				if rmse < best {
					best, bestV = rmse, v
				}
			}
			p.Set(m, bestV)
		}
	}
	rmse, maxAbs, err := eval()
	if err != nil {
		return nil, res, err
	}
	res.RMSE, res.MaxAbs = rmse, maxAbs
	for _, p := range params {
		res.Params[p.Name] = p.Get(m)
	}
	if err := m.Validate(); err != nil {
		return nil, res, fmt.Errorf("calibrate: fitted machine invalid: %w", err)
	}
	return m, res, nil
}

// Evaluate replays the trace on a fresh solver built from m and
// returns each target's emulated series, sampled every SampleEvery, in
// target order, with their pooled RMSE and maximum absolute error
// against the measurements.
func Evaluate(m *model.Machine, tr *trace.Trace, targets []Target) (emulated []*stats.Series, rmse, maxAbs float64, err error) {
	s, err := solver.NewSingle(m.Clone(m.Name), solver.Config{Step: Step})
	if err != nil {
		return nil, 0, 0, err
	}
	probes := make([]trace.Probe, len(targets))
	for i, t := range targets {
		probes[i] = trace.Probe{Machine: m.Name, Node: t.Node}
	}
	emulated, err = trace.Replay(s, tr, probes, SampleEvery)
	if err != nil {
		return nil, 0, 0, err
	}
	var sumSq float64
	var n int
	for i, t := range targets {
		c := stats.CompareSeries(emulated[i], t.Measured)
		sumSq += float64(c.RMSE * c.RMSE * float64(c.N))
		n += c.N
		if c.MaxAbs > maxAbs {
			maxAbs = c.MaxAbs
		}
	}
	if n == 0 {
		return nil, 0, 0, fmt.Errorf("calibrate: targets have no comparable samples")
	}
	return emulated, math.Sqrt(sumSq / float64(n)), maxAbs, nil
}

// heatKParam builds a Param over a heat edge's k constant.
func heatKParam(name, a, b string, min, max float64) Param {
	find := func(m *model.Machine) *model.HeatEdge {
		for i := range m.HeatEdges {
			e := &m.HeatEdges[i]
			if (e.A == a && e.B == b) || (e.A == b && e.B == a) {
				return e
			}
		}
		return nil
	}
	return Param{
		Name: name,
		Min:  min, Max: max,
		Get: func(m *model.Machine) float64 {
			if e := find(m); e != nil {
				return float64(e.K)
			}
			return 0
		},
		Set: func(m *model.Machine, v float64) {
			if e := find(m); e != nil {
				e.K = units.WattsPerKelvin(v)
			}
		},
	}
}

// linearPowerParam builds Params over a component's linear power
// endpoints.
func linearPowerParam(name, comp string, base bool, min, max float64) Param {
	return Param{
		Name: name,
		Min:  min, Max: max,
		Get: func(m *model.Machine) float64 {
			c := m.Component(comp)
			if c == nil {
				return 0
			}
			l, ok := c.Power.(thermo.Linear)
			if !ok {
				return 0
			}
			if base {
				return float64(l.PBase)
			}
			return float64(l.PMax)
		},
		Set: func(m *model.Machine, v float64) {
			c := m.Component(comp)
			if c == nil {
				return
			}
			l, ok := c.Power.(thermo.Linear)
			if !ok {
				return
			}
			if base {
				l.PBase = units.Watts(v)
				if l.PMax < l.PBase {
					l.PMax = l.PBase
				}
			} else {
				l.PMax = units.Watts(v)
				if l.PBase > l.PMax {
					l.PBase = l.PMax
				}
			}
			c.Power = l
		},
	}
}

// fanFlowParam tunes the machine's fan throughput.
func fanFlowParam(min, max float64) Param {
	return Param{
		Name: "fan_flow",
		Min:  min, Max: max,
		Get: func(m *model.Machine) float64 { return float64(m.FanFlow) },
		Set: func(m *model.Machine, v float64) { m.FanFlow = units.CubicFeetPerMinute(v) },
	}
}

// DefaultCPUParams returns the parameter set used to calibrate the
// validation server against the CPU microbenchmark (Figure 5): the
// CPU-side heat constants, CPU power endpoints, and fan flow.
func DefaultCPUParams() []Param {
	return []Param{
		heatKParam("k_cpu_air", model.NodeCPU, model.NodeCPUAir, 0.2, 3),
		heatKParam("k_mb_cpu", model.NodeMotherboard, model.NodeCPU, 0.01, 1),
		linearPowerParam("cpu_pbase", model.NodeCPU, true, 3, 15),
		linearPowerParam("cpu_pmax", model.NodeCPU, false, 15, 45),
		fanFlowParam(20, 60),
	}
}

// DefaultDiskParams returns the parameter set for the disk
// microbenchmark calibration (Figure 6).
func DefaultDiskParams() []Param {
	return []Param{
		heatKParam("k_platters_shell", model.NodeDiskPlatters, model.NodeDiskShell, 0.5, 5),
		heatKParam("k_shell_air", model.NodeDiskShell, model.NodeDiskAir, 0.5, 5),
		linearPowerParam("disk_pbase", model.NodeDiskPlatters, true, 4, 14),
		linearPowerParam("disk_pmax", model.NodeDiskPlatters, false, 9, 22),
	}
}
