package calibrate

import (
	"fmt"
	"math"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/thermo"
	"github.com/darklab/mercury/internal/units"
)

// SteadyCase is one fixed-power configuration with reference
// steady-state temperatures, the shape of the Section 3.2 comparison
// against the CFD simulator.
type SteadyCase struct {
	// Powers overrides component power draws (by component name).
	Powers map[string]units.Watts
	// Want holds the reference steady temperatures (by node name).
	Want map[string]units.Celsius
}

// SteadyState computes a machine's steady-state node temperatures with
// fixed component powers, using the solver's analytic fixed point.
func SteadyState(m *model.Machine, powers map[string]units.Watts) (map[string]units.Celsius, error) {
	mm := m.Clone(m.Name)
	for i := range mm.Components {
		c := &mm.Components[i]
		if p, ok := powers[c.Name]; ok {
			c.Power = thermo.Constant(p)
			c.Util = model.UtilNone
		}
	}
	s, err := solver.NewSingle(mm, solver.Config{})
	if err != nil {
		return nil, err
	}
	return s.SteadyState(mm.Name)
}

// EvaluateSteady returns the RMSE and max absolute error of a
// machine's steady-state temperatures across the cases.
func EvaluateSteady(m *model.Machine, cases []SteadyCase) (rmse, maxAbs float64, err error) {
	var sumSq float64
	n := 0
	for ci, sc := range cases {
		temps, err := SteadyState(m, sc.Powers)
		if err != nil {
			return 0, 0, err
		}
		for node, want := range sc.Want {
			got, ok := temps[node]
			if !ok {
				return 0, 0, fmt.Errorf("calibrate: case %d references unknown node %q", ci, node)
			}
			d := float64(got - want)
			sumSq += float64(d * d)
			if a := math.Abs(d); a > maxAbs {
				maxAbs = a
			}
			n++
		}
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("calibrate: steady cases have no targets")
	}
	return math.Sqrt(sumSq / float64(n)), maxAbs, nil
}

// CalibrateSteady fits params so the machine's steady states match the
// cases, using the same bounded coordinate descent as Calibrate.
func CalibrateSteady(base *model.Machine, cases []SteadyCase, params []Param, opts Options) (*model.Machine, Result, error) {
	if len(cases) == 0 {
		return nil, Result{}, fmt.Errorf("calibrate: no steady cases")
	}
	return search(base, params, opts, func(m *model.Machine) (float64, float64, error) {
		return EvaluateSteady(m, cases)
	})
}

// AnalogParam builds a Param over an analog machine's block heat
// constant (edge block -- block_air).
func AnalogParam(block string, min, max float64) Param {
	return heatKParam("k_"+block, block, block+"_air", min, max)
}
