package experiments

import (
	"fmt"
	"math"

	"github.com/darklab/mercury/internal/calibrate"
	"github.com/darklab/mercury/internal/cfd"
	"github.com/darklab/mercury/internal/stats"
	"github.com/darklab/mercury/internal/units"
)

// fluentCombos are the 14 (CPU, disk) power configurations of the
// Section 3.2 comparison: the CPU swept across its 7..31 W range and
// the disk across 9..14 W.
func fluentCombos() []struct{ CPU, Disk units.Watts } {
	var combos []struct{ CPU, Disk units.Watts }
	for _, cp := range []units.Watts{7, 13, 19, 25, 31} {
		for _, dp := range []units.Watts{9, 11.5, 14} {
			combos = append(combos, struct{ CPU, Disk units.Watts }{cp, dp})
		}
	}
	return combos[:14]
}

// Fluent regenerates the Section 3.2 validation: steady-state
// temperatures of the 2-D simulated server case across 14 fixed power
// configurations, comparing the fine-grained CFD solution against the
// calibrated Mercury analog. The paper reports agreement within 0.25 C
// for the disk and 0.32 C for the CPU.
func Fluent() (*Result, error) {
	c := cfd.DefaultCase()
	combos := fluentCombos()

	// Reference runs (the role of Fluent).
	type ref struct{ cpu, disk, ps units.Celsius }
	refs := make([]ref, len(combos))
	for i, cb := range combos {
		res, err := c.Solve(map[string]units.Watts{"cpu": cb.CPU, "disk": cb.Disk})
		if err != nil {
			return nil, err
		}
		cpuT, err := res.BlockMean("cpu")
		if err != nil {
			return nil, err
		}
		diskT, err := res.BlockMean("disk")
		if err != nil {
			return nil, err
		}
		psT, err := res.BlockMean("ps")
		if err != nil {
			return nil, err
		}
		refs[i] = ref{cpu: cpuT, disk: diskT, ps: psT}
	}

	// Mercury's inputs are calibrated against three of the runs — the
	// corners and a middle point — standing in for the paper's "entering
	// these [Fluent-derived boundary] values as input".
	analog, err := c.MercuryAnalog("case2d")
	if err != nil {
		return nil, err
	}
	calIdx := []int{0, 7, 13}
	var cases []calibrate.SteadyCase
	for _, i := range calIdx {
		cases = append(cases, calibrate.SteadyCase{
			Powers: map[string]units.Watts{"cpu": combos[i].CPU, "disk": combos[i].Disk},
			Want:   map[string]units.Celsius{"cpu": refs[i].cpu, "disk": refs[i].disk, "ps": refs[i].ps},
		})
	}
	params := []calibrate.Param{
		calibrate.AnalogParam("cpu", 0.05, 3),
		calibrate.AnalogParam("disk", 0.05, 3),
		calibrate.AnalogParam("ps", 0.05, 3),
	}
	fitted, fitRes, err := calibrate.CalibrateSteady(analog, cases, params,
		calibrate.Options{Rounds: 8, GridPoints: 11})
	if err != nil {
		return nil, err
	}

	table := &stats.Table{
		Title:   "Section 3.2: Mercury vs CFD steady state, 14 power configurations",
		Headers: []string{"cpu_W", "disk_W", "cfd_cpu_C", "mercury_cpu_C", "cpu_delta_C", "cfd_disk_C", "mercury_disk_C", "disk_delta_C"},
	}
	var maxCPU, maxDisk float64
	for i, cb := range combos {
		temps, err := calibrate.SteadyState(fitted, map[string]units.Watts{"cpu": cb.CPU, "disk": cb.Disk})
		if err != nil {
			return nil, err
		}
		dCPU := float64(temps["cpu"] - refs[i].cpu)
		dDisk := float64(temps["disk"] - refs[i].disk)
		if a := math.Abs(dCPU); a > maxCPU {
			maxCPU = a
		}
		if a := math.Abs(dDisk); a > maxDisk {
			maxDisk = a
		}
		table.AddRow(float64(cb.CPU), float64(cb.Disk),
			float64(refs[i].cpu), float64(temps["cpu"]), dCPU,
			float64(refs[i].disk), float64(temps["disk"]), dDisk)
	}

	return &Result{
		Name: "fluent",
		Summary: fmt.Sprintf(
			"Mercury matched the CFD steady states within %.3fC (CPU) and %.3fC (disk) across 14 power configurations "+
				"after calibrating 3 heat constants on 3 of the runs (fit rmse %.3fC, %d evaluations). "+
				"The paper reports 0.32C and 0.25C against Fluent.",
			maxCPU, maxDisk, fitRes.RMSE, fitRes.Evals),
		Tables: []*stats.Table{table},
		Metrics: map[string]float64{
			"max_cpu_delta":  maxCPU,
			"max_disk_delta": maxDisk,
			"fit_rmse":       fitRes.RMSE,
			"fitted_k_cpu":   fitRes.Params["k_cpu"],
			"fitted_k_disk":  fitRes.Params["k_disk"],
			"fitted_k_ps":    fitRes.Params["k_ps"],
		},
	}, nil
}
