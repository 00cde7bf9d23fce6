// Calibration: the Section 3.1 workflow end to end. A "real machine"
// (here the suite's fine-grained reference server; on real hardware,
// your thermometer logs) runs the CPU microbenchmark; Mercury starts
// from the Table 1 inputs, which are close but not exact; the
// calibration phase tunes the constants until the emulation matches;
// and a held-out combined benchmark confirms the fit generalizes —
// the paper's "within 1C at all times".
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	mercury "github.com/darklab/mercury"
)

func main() {
	const machine = "server"

	// 1. Run the CPU microbenchmark on the "real machine" and record
	// the thermometer above the CPU heat sink.
	real := mercury.NewRefServer(42)
	bench := mercury.CPUCalibrationBenchmark(machine)
	measured := real.Replay(bench, 10*time.Second)
	fmt.Printf("measured cpu_air: %.1fC .. %.1fC over %v\n",
		measured.CPUAir.Min(), measured.CPUAir.Max(), bench.Duration())

	// 2. Calibrate Mercury against those measurements, starting from
	// the Table 1 description.
	base := mercury.DefaultServer(machine)
	targets := []mercury.CalibrationTarget{{Node: mercury.NodeCPUAir, Measured: measured.CPUAir}}
	fitted, result, err := mercury.Calibrate(base, bench, targets,
		mercury.DefaultCPUCalibrationParams(), mercury.CalibrationOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calibrated in %d solver replays: worst-case error %.2fC (rmse %.3fC)\n",
		result.Evals, result.MaxAbs, result.RMSE)
	for name, v := range result.Params {
		fmt.Printf("  fitted %-12s = %.4f\n", name, v)
	}

	// 3. Validate on a workload the calibration never saw, with no
	// further adjustment: replay it on both the real machine and the
	// fitted model and compare.
	validation := mercury.CombinedBenchmark(machine, 7, 3000*time.Second, 50*time.Second)
	realAgain := mercury.NewRefServer(42)
	vmeasured := realAgain.Replay(validation, 10*time.Second)

	sol, err := mercury.NewSolver(fitted, mercury.SolverConfig{})
	if err != nil {
		log.Fatal(err)
	}
	emulated, err := mercury.Replay(sol, validation,
		[]mercury.Probe{{Machine: machine, Node: mercury.NodeCPUAir}}, 10*time.Second)
	if err != nil {
		log.Fatal(err)
	}

	worst := 0.0
	for _, p := range emulated[0].Points {
		worst = math.Max(worst, math.Abs(p.Value-vmeasured.CPUAir.At(p.At)))
	}
	fmt.Printf("held-out validation: worst-case error %.2fC across %d samples (paper: within 1C)\n",
		worst, emulated[0].Len())
}
