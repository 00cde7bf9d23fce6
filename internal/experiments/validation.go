package experiments

import (
	"fmt"
	"time"

	"github.com/darklab/mercury/internal/calibrate"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/physical"
	"github.com/darklab/mercury/internal/stats"
	"github.com/darklab/mercury/internal/trace"
	"github.com/darklab/mercury/internal/workload"
)

// refSeed selects the canonical "physical unit" the Section 3.1
// validation measures against.
const refSeed = 42

// validationMachine is the machine name used in single-server runs.
const validationMachine = "server"

// CalibratedServer runs the full Section 3.1 calibration phase against
// the reference machine: the CPU microbenchmark fits the CPU-side
// constants (Figure 5), then the disk microbenchmark fits the
// disk-side constants (Figure 6), starting from the Table 1 inputs.
// The returned machine is the one the Figure 7/8 validations use
// without further adjustment.
func CalibratedServer() (*model.Machine, error) {
	base := model.DefaultServer(validationMachine)

	cpuTrace := workload.CPUCalibration(validationMachine)
	cpuMeas := physical.NewRefServer(refSeed).Replay(cpuTrace, 10*time.Second)
	fitted, _, err := calibrate.Calibrate(base, cpuTrace,
		[]calibrate.Target{{Node: model.NodeCPUAir, Measured: cpuMeas.CPUAir}},
		calibrate.DefaultCPUParams(), calibrate.Options{})
	if err != nil {
		return nil, err
	}

	diskTrace := workload.DiskCalibration(validationMachine)
	diskMeas := physical.NewRefServer(refSeed).Replay(diskTrace, 10*time.Second)
	fitted, _, err = calibrate.Calibrate(fitted, diskTrace,
		[]calibrate.Target{{Node: model.NodeDiskPlatters, Measured: diskMeas.Disk}},
		calibrate.DefaultDiskParams(), calibrate.Options{})
	if err != nil {
		return nil, err
	}
	return fitted, nil
}

// calibrationFigure runs one of the Figure 5/6 calibration
// experiments: replay the microbenchmark on the reference machine,
// fit Mercury, and chart utilization + measured + emulated series.
func calibrationFigure(name, title string, tr *trace.Trace, node string,
	measured *stats.Series, params []calibrate.Param, utilOf func(trace.Record) (float64, bool)) (*Result, error) {

	base := model.DefaultServer(validationMachine)
	targets := []calibrate.Target{{Node: node, Measured: measured}}

	_, preRMSE, preMax, err := calibrate.Evaluate(base, tr, targets)
	if err != nil {
		return nil, err
	}
	fitted, res, err := calibrate.Calibrate(base, tr, targets, params, calibrate.Options{})
	if err != nil {
		return nil, err
	}
	emulated, _, _, err := calibrate.Evaluate(fitted, tr, targets)
	if err != nil {
		return nil, err
	}
	emulated[0].Name = "emulated"
	util := stats.NewSeries("utilization (%)")
	for _, r := range tr.Records {
		if v, ok := utilOf(r); ok {
			util.Add(r.At, v*100)
		}
	}
	measured.Name = "measured"

	metrics := map[string]float64{
		"pre_calibration_rmse":    preRMSE,
		"pre_calibration_maxabs":  preMax,
		"post_calibration_rmse":   res.RMSE,
		"post_calibration_maxabs": res.MaxAbs,
		"calibration_evals":       float64(res.Evals),
	}
	for k, v := range res.Params {
		metrics["fitted_"+k] = v
	}
	return &Result{
		Name: name,
		Summary: fmt.Sprintf(
			"%s: calibration reduced the worst-case error from %.2fC to %.2fC (rmse %.3fC -> %.3fC) in %d solver replays.",
			title, preMax, res.MaxAbs, preRMSE, res.RMSE, res.Evals),
		Charts: []*stats.Chart{
			{Title: title + ": temperatures (C)", Series: []*stats.Series{emulated[0], measured}},
			{Title: title + ": driving utilization (%)", Series: []*stats.Series{util}, Height: 8},
		},
		Metrics: metrics,
	}, nil
}

// Fig5 regenerates Figure 5: calibrating Mercury for CPU usage and
// temperature against the reference machine's CPU-air thermometer.
func Fig5() (*Result, error) {
	tr := workload.CPUCalibration(validationMachine)
	meas := physical.NewRefServer(refSeed).Replay(tr, 10*time.Second)
	return calibrationFigure("fig5", "Figure 5 (CPU calibration)", tr,
		model.NodeCPUAir, meas.CPUAir, calibrate.DefaultCPUParams(),
		func(r trace.Record) (float64, bool) {
			return float64(r.Util), r.Source == model.UtilCPU
		})
}

// Fig6 regenerates Figure 6: the disk calibration.
func Fig6() (*Result, error) {
	tr := workload.DiskCalibration(validationMachine)
	meas := physical.NewRefServer(refSeed).Replay(tr, 10*time.Second)
	return calibrationFigure("fig6", "Figure 6 (disk calibration)", tr,
		model.NodeDiskPlatters, meas.Disk, calibrate.DefaultDiskParams(),
		func(r trace.Record) (float64, bool) {
			return float64(r.Util), r.Source == model.UtilDisk
		})
}

// validationFigure runs one of the Figure 7/8 experiments: the
// calibrated machine replays the combined benchmark "without adjusting
// any input parameters" and is compared against fresh measurements of
// the same workload.
func validationFigure(name, title, node string, pick func(*physical.Measurements) *stats.Series) (*Result, error) {
	fitted, err := CalibratedServer()
	if err != nil {
		return nil, err
	}
	tr := workload.Combined(validationMachine, 7, 5000*time.Second, 50*time.Second)
	meas := physical.NewRefServer(refSeed).Replay(tr, 10*time.Second)
	measured := pick(meas)

	emulated, rmse, maxAbs, err := calibrate.Evaluate(fitted, tr,
		[]calibrate.Target{{Node: node, Measured: measured}})
	if err != nil {
		return nil, err
	}
	emulated[0].Name = "emulated"
	measured.Name = "measured"

	return &Result{
		Name: name,
		Summary: fmt.Sprintf(
			"%s: with no recalibration, Mercury tracked the challenging combined benchmark within %.2fC worst-case "+
				"(rmse %.3fC) — the paper reports accuracy within 1C.",
			title, maxAbs, rmse),
		Charts: []*stats.Chart{
			{Title: title + ": temperatures (C)", Series: []*stats.Series{emulated[0], measured}},
		},
		Metrics: map[string]float64{
			"validation_rmse":   rmse,
			"validation_maxabs": maxAbs,
		},
	}, nil
}

// Fig7 regenerates Figure 7: real-system CPU-air validation on the
// combined benchmark.
func Fig7() (*Result, error) {
	return validationFigure("fig7", "Figure 7 (CPU air validation)", model.NodeCPUAir,
		func(m *physical.Measurements) *stats.Series { return m.CPUAir })
}

// Fig8 regenerates Figure 8: real-system disk validation.
func Fig8() (*Result, error) {
	return validationFigure("fig8", "Figure 8 (disk validation)", model.NodeDiskPlatters,
		func(m *physical.Measurements) *stats.Series { return m.Disk })
}
