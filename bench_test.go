// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the ablations DESIGN.md calls out; the Section 2.3
// microlatencies and every benchmark of one package live beside that
// package's code. Domain results (errors in Celsius, drop rates)
// are attached to each benchmark via ReportMetric, so
// `go test -bench=. -benchmem` both times the harness and re-checks
// the reproduced shapes.
package mercury_test

import (
	"testing"
	"time"

	mercury "github.com/darklab/mercury"
	"github.com/darklab/mercury/internal/calibrate"
	"github.com/darklab/mercury/internal/experiments"
	"github.com/darklab/mercury/internal/fanctl"
	"github.com/darklab/mercury/internal/fiddle"
	"github.com/darklab/mercury/internal/freon"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/thermo"
	"github.com/darklab/mercury/internal/units"
	"github.com/darklab/mercury/internal/webcluster"
)

// benchExperiment runs a registered experiment per iteration and
// reports selected metrics from the final run.
func benchExperiment(b *testing.B, name string, metrics ...string) {
	b.Helper()
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run(name)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, m := range metrics {
		if v, ok := last.Metrics[m]; ok {
			b.ReportMetric(v, m)
		}
	}
}

// Table 1.
func BenchmarkTable1Defaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := model.DefaultServer("server")
		if err := m.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// Figures 5-8 and the Fluent table: each iteration regenerates the
// whole experiment (reference run + calibration + comparison).
func BenchmarkFig5CPUCalibration(b *testing.B) {
	benchExperiment(b, "fig5", "post_calibration_maxabs")
}

func BenchmarkFig6DiskCalibration(b *testing.B) {
	benchExperiment(b, "fig6", "post_calibration_maxabs")
}

func BenchmarkFig7CPUValidation(b *testing.B) {
	benchExperiment(b, "fig7", "validation_maxabs")
}

func BenchmarkFig8DiskValidation(b *testing.B) {
	benchExperiment(b, "fig8", "validation_maxabs")
}

func BenchmarkFluentSteadyState(b *testing.B) {
	benchExperiment(b, "fluent", "max_cpu_delta", "max_disk_delta")
}

// Section 5: the three cluster runs.
func BenchmarkFig11FreonBase(b *testing.B) {
	benchExperiment(b, "fig11", "drop_rate", "max_cpu_temp_machine1")
}

func BenchmarkTraditionalPolicy(b *testing.B) {
	benchExperiment(b, "trad", "drop_rate", "servers_shut_down")
}

func BenchmarkFig12FreonEC(b *testing.B) {
	benchExperiment(b, "fig12", "drop_rate", "min_active_servers", "total_energy_joules")
}

// ---- Ablations (DESIGN.md section 5) ----

// freonVariantRun executes the Figure 11 rig under the variant setup
// installs — a sim.Policy, or a controller tick run every emulated
// second after the solver step — and returns (dropRate, maxCPUTemp
// over the hot machines).
func freonVariantRun(b *testing.B, setup func(*experiments.Sim) (tick func(sec int) error, err error)) (float64, float64) {
	b.Helper()
	sim, err := experiments.NewSim(4, 1, 2000*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	script, err := fiddle.ParseScript("sleep 480\nfiddle machine1 temperature inlet 38.6\nfiddle machine3 temperature inlet 35.6\n")
	if err != nil {
		b.Fatal(err)
	}
	sim.Fiddle = script.Schedule()
	tick, err := setup(sim)
	if err != nil {
		b.Fatal(err)
	}
	maxTemp := 0.0
	sim.OnSecond = func(sec int, _ webcluster.Tick) error {
		if tick != nil {
			if err := tick(sec); err != nil {
				return err
			}
		}
		for _, m := range []string{"machine1", "machine3"} {
			t, err := sim.Solver.Temperature(m, model.NodeCPU)
			if err != nil {
				return err
			}
			if float64(t) > maxTemp {
				maxTemp = float64(t)
			}
		}
		return nil
	}
	if err := sim.Run(2000 * time.Second); err != nil {
		b.Fatal(err)
	}
	return sim.Cluster.Totals().DropRate(), maxTemp
}

// every runs fn on each n-th emulated second.
func every(n int, fn func() error) func(sec int) error {
	return func(sec int) error {
		if (sec+1)%n != 0 {
			return nil
		}
		return fn()
	}
}

// BenchmarkAblationController compares the paper's PD admission
// controller against P-only and an aggressive high-gain variant.
func BenchmarkAblationController(b *testing.B) {
	variants := []struct {
		name   string
		kp, kd float64
	}{
		{"pd-paper", 0.1, 0.2},
		{"p-only", 0.1, 1e-9},
		{"aggressive", 1.0, 0.5},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var drop, maxTemp float64
			for i := 0; i < b.N; i++ {
				drop, maxTemp = freonVariantRun(b, func(sim *experiments.Sim) (func(int) error, error) {
					fr, err := freon.New(sim.Cluster.Machines(), sim.Solver, sim.Bal, sim.Power(),
						freon.Config{Kp: v.kp, Kd: v.kd})
					sim.Policy = fr
					return nil, err
				})
			}
			b.ReportMetric(drop*100, "drop_%")
			b.ReportMetric(maxTemp, "max_hot_C")
		})
	}
}

// BenchmarkAblationLocalThrottle compares Freon's remote throttling
// against CPU-local DVFS-style throttling (Section 4.3): the local
// policy cools the CPU by slowing it, which costs service capacity and
// drops requests under the same emergencies.
func BenchmarkAblationLocalThrottle(b *testing.B) {
	th := float64(freon.DefaultComponents()[0].High)
	tl := float64(freon.DefaultComponents()[0].Low)
	b.Run("remote-freon", func(b *testing.B) {
		var drop, maxTemp float64
		for i := 0; i < b.N; i++ {
			drop, maxTemp = freonVariantRun(b, func(sim *experiments.Sim) (func(int) error, error) {
				fr, err := freon.New(sim.Cluster.Machines(), sim.Solver, sim.Bal, sim.Power(), freon.Config{})
				sim.Policy = fr
				return nil, err
			})
		}
		b.ReportMetric(drop*100, "drop_%")
		b.ReportMetric(maxTemp, "max_hot_C")
	})
	b.Run("local-dvfs", func(b *testing.B) {
		var drop, maxTemp float64
		for i := 0; i < b.N; i++ {
			drop, maxTemp = freonVariantRun(b, func(sim *experiments.Sim) (func(int) error, error) {
				scale := map[string]float64{}
				for _, m := range sim.Cluster.Machines() {
					scale[m] = 1
				}
				onPeriod := func() error {
					for _, m := range sim.Cluster.Machines() {
						t, err := sim.Solver.Temperature(m, model.NodeCPU)
						if err != nil {
							return err
						}
						switch {
						case float64(t) > th && scale[m] > 0.4:
							scale[m] -= 0.15 // drop a frequency step
						case float64(t) < tl && scale[m] < 1:
							scale[m] += 0.15
							if scale[m] > 1 {
								scale[m] = 1
							}
						default:
							continue
						}
						if err := sim.Solver.SetPowerScale(m, model.NodeCPU, units.Fraction(scale[m])); err != nil {
							return err
						}
						if err := sim.Cluster.SetSpeed(m, scale[m]); err != nil {
							return err
						}
					}
					return nil
				}
				return every(60, onPeriod), nil
			})
		}
		b.ReportMetric(drop*100, "drop_%")
		b.ReportMetric(maxTemp, "max_hot_C")
	})
}

// BenchmarkAblationRegionBlind compares Freon-EC's region-aware server
// selection against a region-blind variant (everything in one region):
// blind selection can bring replacement servers up inside the
// emergency's blast radius.
func BenchmarkAblationRegionBlind(b *testing.B) {
	run := func(b *testing.B, regions map[string]int) (float64, float64) {
		return freonVariantRun(b, func(sim *experiments.Sim) (func(int) error, error) {
			ec, err := freon.NewEC(sim.Cluster.Machines(), sim.Solver, sim.Solver, sim.Bal, sim.Power(),
				freon.ECConfig{Regions: regions})
			sim.Policy = ec
			return nil, err
		})
	}
	b.Run("region-aware", func(b *testing.B) {
		var drop, maxTemp float64
		for i := 0; i < b.N; i++ {
			drop, maxTemp = run(b, map[string]int{"machine1": 0, "machine3": 0, "machine2": 1, "machine4": 1})
		}
		b.ReportMetric(drop*100, "drop_%")
		b.ReportMetric(maxTemp, "max_hot_C")
	})
	b.Run("region-blind", func(b *testing.B) {
		var drop, maxTemp float64
		for i := 0; i < b.N; i++ {
			drop, maxTemp = run(b, map[string]int{"machine1": 0, "machine2": 0, "machine3": 0, "machine4": 0})
		}
		b.ReportMetric(drop*100, "drop_%")
		b.ReportMetric(maxTemp, "max_hot_C")
	})
}

// BenchmarkAblationStepSize measures the accuracy-vs-cost tradeoff of
// the solver's iteration period against a 100ms reference trajectory.
func BenchmarkAblationStepSize(b *testing.B) {
	reference := func() float64 {
		s, err := solver.NewSingle(model.DefaultServer("m1"), solver.Config{Step: 100 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		s.SetUtilization("m1", model.UtilCPU, 1)
		s.Run(30 * time.Minute)
		t, err := s.Temperature("m1", model.NodeCPU)
		if err != nil {
			b.Fatal(err)
		}
		return float64(t)
	}()
	for _, step := range []time.Duration{time.Second, 5 * time.Second} {
		b.Run(step.String(), func(b *testing.B) {
			var errC float64
			for i := 0; i < b.N; i++ {
				s, err := solver.NewSingle(model.DefaultServer("m1"), solver.Config{Step: step})
				if err != nil {
					b.Fatal(err)
				}
				s.SetUtilization("m1", model.UtilCPU, 1)
				s.Run(30 * time.Minute)
				t, err := s.Temperature("m1", model.NodeCPU)
				if err != nil {
					b.Fatal(err)
				}
				errC = float64(t) - reference
				if errC < 0 {
					errC = -errC
				}
			}
			b.ReportMetric(errC, "abs_error_C")
		})
	}
}

// BenchmarkAblationPowerModel compares the default linear
// utilization-to-power model against a piecewise fit on the reference
// machine's slightly super-linear CPU, measuring held-out emulation
// error.
func BenchmarkAblationPowerModel(b *testing.B) {
	runWith := func(b *testing.B, m *model.Machine) float64 {
		b.Helper()
		ref := mercury.NewRefServer(42)
		bench := mercury.CombinedBenchmark("server", 7, 2000*time.Second, 50*time.Second)
		meas := ref.Replay(bench, 10*time.Second)
		_, _, worst, err := calibrate.Evaluate(m, bench,
			[]calibrate.Target{{Node: model.NodeCPUAir, Measured: meas.CPUAir}})
		if err != nil {
			b.Fatal(err)
		}
		return worst
	}
	b.Run("linear", func(b *testing.B) {
		var worst float64
		for i := 0; i < b.N; i++ {
			worst = runWith(b, model.DefaultServer("server"))
		}
		b.ReportMetric(worst, "max_error_C")
	})
	b.Run("piecewise", func(b *testing.B) {
		var worst float64
		for i := 0; i < b.N; i++ {
			m := model.DefaultServer("server")
			// A bowed curve approximating u^1.1 between the endpoints.
			pw, err := thermo.NewPiecewise(
				[]units.Fraction{0, 0.25, 0.5, 0.75, 1},
				[]units.Watts{7, 12.1, 18.0, 24.3, 31},
			)
			if err != nil {
				b.Fatal(err)
			}
			m.Component(model.NodeCPU).Power = pw
			worst = runWith(b, m)
		}
		b.ReportMetric(worst, "max_error_C")
	})
}

// BenchmarkAblationTwoStage compares the base policy (weights first)
// against the Section 4.3 two-stage content-aware policy (block the
// hot component's heavy request class first, weights only on
// escalation).
func BenchmarkAblationTwoStage(b *testing.B) {
	run := func(b *testing.B, twoStage bool) (float64, float64) {
		return freonVariantRun(b, func(sim *experiments.Sim) (func(int) error, error) {
			fr, err := freon.New(sim.Cluster.Machines(), sim.Solver, sim.Bal, sim.Power(),
				freon.Config{TwoStage: twoStage})
			sim.Policy = fr
			return nil, err
		})
	}
	for _, twoStage := range []bool{false, true} {
		name := "weights-first"
		if twoStage {
			name = "two-stage"
		}
		b.Run(name, func(b *testing.B) {
			var drop, maxTemp float64
			for i := 0; i < b.N; i++ {
				drop, maxTemp = run(b, twoStage)
			}
			b.ReportMetric(drop*100, "drop_%")
			b.ReportMetric(maxTemp, "max_hot_C")
		})
	}
}

// tableOneFans is a fan policy for the Table 1 server: nominal
// 38.6 cfm, stepping up at CPU 60 and 67 C.
func tableOneFans() fanctl.Config {
	return fanctl.Config{
		Node:       model.NodeCPU,
		Base:       38.6,
		Levels:     []fanctl.Level{{Above: 60, Flow: 55}, {Above: 67, Flow: 75}},
		Hysteresis: 2,
	}
}

// BenchmarkAblationFanControl measures how much a firmware-style
// variable-speed fan (Section 7's extension) lowers the hot machines'
// peak temperature under the Figure 11 emergencies, with no load
// management at all.
func BenchmarkAblationFanControl(b *testing.B) {
	run := func(b *testing.B, withFans bool) (float64, float64) {
		return freonVariantRun(b, func(sim *experiments.Sim) (func(int) error, error) {
			if !withFans {
				return nil, nil
			}
			var ctls []*fanctl.Controller
			for _, m := range sim.Cluster.Machines() {
				c, err := fanctl.New(m, sim.Solver, sim.Solver, tableOneFans())
				if err != nil {
					return nil, err
				}
				ctls = append(ctls, c)
			}
			onPoll := func() error {
				for _, c := range ctls {
					if err := c.Tick(); err != nil {
						return err
					}
				}
				return nil
			}
			return every(5, onPoll), nil
		})
	}
	for _, withFans := range []bool{false, true} {
		name := "fixed-fan"
		if withFans {
			name = "variable-fan"
		}
		b.Run(name, func(b *testing.B) {
			var drop, maxTemp float64
			for i := 0; i < b.N; i++ {
				drop, maxTemp = run(b, withFans)
			}
			b.ReportMetric(drop*100, "drop_%")
			b.ReportMetric(maxTemp, "max_hot_C")
		})
	}
}

// BenchmarkMultiTierFreon regenerates the multi-tier extension
// experiment (per-tier Freon under a backend emergency).
func BenchmarkMultiTierFreon(b *testing.B) {
	benchExperiment(b, "multitier", "drop_rate", "max_cpu_temp_machine3")
}

// BenchmarkRecirc regenerates the rack-recirculation extension
// experiment.
func BenchmarkRecirc(b *testing.B) {
	benchExperiment(b, "recirc", "hot_spot_C")
}
