package mercury

import (
	"time"

	"github.com/darklab/mercury/internal/calibrate"
	"github.com/darklab/mercury/internal/physical"
	"github.com/darklab/mercury/internal/stats"
	"github.com/darklab/mercury/internal/workload"
)

// Calibration (Sections 2.2 and 3.1): tune a machine's heat/air/power
// constants until emulated readings match measurements. Users with
// real hardware record sensor series during the microbenchmarks; the
// suite also ships a fine-grained reference server that stands in for
// a physical machine.
type (
	// Series is a sampled time series (sensor measurements, emulated
	// temperatures).
	Series = stats.Series
	// CalibrationTarget pairs a model node with its measured series.
	CalibrationTarget = calibrate.Target
	// CalibrationParam is one tunable scalar with bounds.
	CalibrationParam = calibrate.Param
	// CalibrationOptions tunes the coordinate-descent search.
	CalibrationOptions = calibrate.Options
	// CalibrationResult reports fitted parameters and residuals.
	CalibrationResult = calibrate.Result
	// RefServer is the fine-grained reference machine used as the
	// measurement stand-in when no physical testbed is available.
	RefServer = physical.RefServer
	// Measurements holds the reference machine's recorded sensor
	// series.
	Measurements = physical.Measurements
)

// Calibrate fits params on a copy of base so that replaying the
// utilization trace reproduces the measured targets.
func Calibrate(base *Machine, tr *UtilTrace, targets []CalibrationTarget,
	params []CalibrationParam, opts CalibrationOptions) (*Machine, CalibrationResult, error) {
	return calibrate.Calibrate(base, tr, targets, params, opts)
}

// DefaultCPUCalibrationParams returns the CPU-side parameter set
// (heat constants, power endpoints, fan flow).
func DefaultCPUCalibrationParams() []CalibrationParam { return calibrate.DefaultCPUParams() }

// NewRefServer builds a reference machine; the seed perturbs its
// hidden constants like manufacturing variation.
func NewRefServer(seed int64) *RefServer { return physical.NewRefServer(seed) }

// CPUCalibrationBenchmark is the Figure 5 microbenchmark: the CPU
// stepped through utilization levels with idle gaps.
func CPUCalibrationBenchmark(machine string) *UtilTrace {
	return workload.CPUCalibration(machine)
}

// CombinedBenchmark is the Figures 7/8 validation workload: both
// components exercised with quickly changing utilizations.
func CombinedBenchmark(machine string, seed int64, duration, interval time.Duration) *UtilTrace {
	return workload.Combined(machine, seed, duration, interval)
}
