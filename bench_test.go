// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the Section 2.3 microlatencies and the ablations
// DESIGN.md calls out. Domain results (errors in Celsius, drop rates)
// are attached to each benchmark via ReportMetric, so
// `go test -bench=. -benchmem` both times the harness and re-checks
// the reproduced shapes.
package mercury_test

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	mercury "github.com/darklab/mercury"
	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/dotlang"
	"github.com/darklab/mercury/internal/experiments"
	"github.com/darklab/mercury/internal/fanctl"
	"github.com/darklab/mercury/internal/fiddle"
	"github.com/darklab/mercury/internal/freon"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/monitord"
	"github.com/darklab/mercury/internal/procfs"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/solverd"
	"github.com/darklab/mercury/internal/surrogate"
	"github.com/darklab/mercury/internal/telemetry"
	"github.com/darklab/mercury/internal/thermo"
	"github.com/darklab/mercury/internal/units"
	"github.com/darklab/mercury/internal/webcluster"
	"github.com/darklab/mercury/internal/wire"
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

// Section 2.3: the solver computes each iteration in ~100us on the
// paper's 2006 hardware; these report the per-iteration cost for
// 1-, 4- and 16-machine rooms.
func BenchmarkSolverIteration(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("machines-%d", n), func(b *testing.B) {
			c, err := model.DefaultCluster("room", n)
			if err != nil {
				b.Fatal(err)
			}
			s, err := solver.New(c, solver.Config{})
			if err != nil {
				b.Fatal(err)
			}
			s.SetUtilization("machine1", model.UtilCPU, 0.7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

// BenchmarkScaleoutStep measures the sharded stepping loop at cluster
// scale: machines × worker counts, where workers=1 is the serial loop
// and workers=auto shards across every CPU via the persistent
// shard-owning pool (pool.go) — but goes serial below the
// ~256-machines-per-worker threshold, so at machines <= 1000 auto
// matches workers=1 by design. Temperatures are bit-identical across
// the variants (asserted by TestParallelDeterminism); the benchmark
// exists to prove the speedup. On a multi-core runner
// machines=10000/workers=4 must beat workers=1 — the scaling assert of
// scripts/ci.sh's bench stage enforces exactly that pair.
//
// The machines=100000 tier approaches the scale of whole-datacenter
// thermal studies; model construction alone takes tens of seconds
// there, so the cluster is built once per size and reused across the
// worker variants, and only the serial/4-worker pair runs.
//
// The loop runs with telemetry sampling live on solverd's cadence
// (every 10th step into a ring buffer), so the reported ns/op and
// allocs/op cover the observed configuration: the numbers must stay
// within noise of the unobserved loop and at 0 allocs/op
// (docs/observability.md).
func BenchmarkScaleoutStep(b *testing.B) {
	clusters := map[int]*model.Cluster{}
	cluster := func(n int) *model.Cluster {
		if c, ok := clusters[n]; ok {
			return c
		}
		c, err := model.DefaultCluster("room", n)
		if err != nil {
			b.Fatal(err)
		}
		clusters[n] = c
		return c
	}
	tiers := []struct {
		n       int
		workers []string
	}{
		{10, []string{"1", "2", "4", "auto"}},
		{100, []string{"1", "2", "4", "auto"}},
		{1000, []string{"1", "2", "4", "auto"}},
		{10000, []string{"1", "2", "4", "auto"}},
		{100000, []string{"1", "4"}},
	}
	if testing.Short() {
		tiers = tiers[:4]
	}
	for _, tier := range tiers {
		n := tier.n
		for _, wname := range tier.workers {
			workers := 0
			if wname != "auto" {
				var err error
				if workers, err = strconv.Atoi(wname); err != nil {
					b.Fatalf("bad workers tier %q: %v", wname, err)
				}
			}
			b.Run(fmt.Sprintf("machines=%d/workers=%s", n, wname), func(b *testing.B) {
				s, err := solver.New(cluster(n), solver.Config{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				for i := 1; i <= n; i++ {
					if err := s.SetUtilization(fmt.Sprintf("machine%d", i), model.UtilCPU,
						units.Fraction(float64(i%10)/10)); err != nil {
						b.Fatal(err)
					}
				}
				machines, nodes := s.Probes()
				probes := make([]telemetry.TempProbe, len(machines))
				for i := range machines {
					probes[i] = telemetry.TempProbe{Machine: machines[i], Node: nodes[i]}
				}
				temps := telemetry.NewTempTable(probes, 64)
				fill := s.ReadAllTemps // hoisted: a fresh method value per call would allocate
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Step()
					if (i+1)%10 == 0 {
						temps.Sample(time.Duration(i+1)*time.Second, fill)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "machine-steps/s")
			})
		}
	}
}

// benchStepTracing steps a 100-machine room with solverd's ticker
// instrumentation around each step: clock read, step, span emit. A nil
// tracer is the -trace-spans-off configuration every daemon runs by
// default.
func benchStepTracing(b *testing.B, tracer *causal.Tracer) {
	b.Helper()
	const n = 100
	c, err := model.DefaultCluster("room", n)
	if err != nil {
		b.Fatal(err)
	}
	s, err := solver.New(c, solver.Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if err := s.SetUtilization(fmt.Sprintf("machine%d", i), model.UtilCPU,
			units.Fraction(float64(i%10)/10)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var steps uint64
	for i := 0; i < b.N; i++ {
		var begin time.Duration
		if tracer != nil {
			begin = tracer.Now()
		}
		s.Step()
		steps++
		if tracer != nil {
			tracer.Emit(causal.Span{
				Trace: tracer.NewTrace("solver-step"),
				Kind:  causal.KindStep,
				Begin: begin,
				End:   tracer.Now(),
				Step:  steps,
			})
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "machine-steps/s")
}

// BenchmarkStepTracingOff is the stepping loop with causal tracing
// disabled — the configuration every daemon runs unless -trace-spans
// is given. It must stay at 0 allocs/op and within noise of the
// uninstrumented loop (docs/observability.md).
func BenchmarkStepTracingOff(b *testing.B) {
	benchStepTracing(b, nil)
}

// BenchmarkStepTracingOn is the same loop recording a solver-step span
// per step into the tracer's ring, as solverd does under -trace-spans.
func BenchmarkStepTracingOn(b *testing.B) {
	benchStepTracing(b, causal.NewTracer(4096, clock.Real{}))
}

// BenchmarkActiveSetIdle measures stepping a fully converged room:
// every machine sits at its exact thermal fixed point, so the active
// set skips every machine and each step only accrues energy
// (TestActiveSetQuiescence holds that to exhaustive stepping). The tier
// keeps its activeset=on name because the CI bench gate matches it
// against the recorded baseline.
func BenchmarkActiveSetIdle(b *testing.B) {
	const n = 1000
	b.Run(fmt.Sprintf("machines=%d/activeset=on", n), func(b *testing.B) {
		c, err := model.DefaultCluster("room", n)
		if err != nil {
			b.Fatal(err)
		}
		s, err := solver.New(c, solver.Config{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		// Idle room: no utilization, but base power still warms the
		// machines. Drive to the exact fixed point before timing.
		s.Step()
		for i := 0; i < 40 && s.LastStepDelta() != 0; i++ {
			s.StepN(2000)
		}
		if s.LastStepDelta() != 0 {
			b.Fatal("room did not reach its exact fixed point")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
		b.StopTimer()
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "machine-steps/s")
	})
}

// Section 2.3: readsensor() averages ~300us over UDP in the paper
// (against ~500us for a real SCSI in-disk sensor).
func BenchmarkReadSensor(b *testing.B) {
	sol, err := mercury.NewSolver(mercury.DefaultServer("m1"), mercury.SolverConfig{})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := mercury.ListenSolver("127.0.0.1:0", sol)
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	sd, err := mercury.OpenSensor(srv.Addr().String(), "m1", mercury.NodeCPU)
	if err != nil {
		b.Fatal(err)
	}
	defer sd.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sd.Read(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverSteadyState times the analytic fixed point used by
// calibration sweeps and the Fluent comparison.
func BenchmarkSolverSteadyState(b *testing.B) {
	s, err := mercury.NewSolver(mercury.DefaultServer("m1"), mercury.SolverConfig{})
	if err != nil {
		b.Fatal(err)
	}
	s.SetUtilization("m1", mercury.UtilCPU, 0.7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SteadyState("m1"); err != nil {
			b.Fatal(err)
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
		sol, err := solver.NewSingle(m.Clone("server"), solver.Config{})
		if err != nil {
			b.Fatal(err)
		}
		log, err := mercury.Replay(sol, bench, []mercury.Probe{{Machine: "server", Node: model.NodeCPUAir}}, 10*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, rec := range log.Records {
			d := float64(rec.Temp) - meas.CPUAir.At(rec.At)
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
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

// BenchmarkDotParse measures the model language front end on the
// Table 1 server description.
func BenchmarkDotParse(b *testing.B) {
	src := dotlang.PrintMachine(mercury.DefaultServer("server"))
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dotlang.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceReplay measures offline mode: one emulated hour of
// trace replay with one probe, per iteration.
func BenchmarkTraceReplay(b *testing.B) {
	var src strings.Builder
	for s := 0; s <= 3600; s += 10 {
		fmt.Fprintf(&src, "%d m1 cpu %0.2f\n", s, float64(s%100)/100)
	}
	tr, err := mercury.ReadUtilTrace(strings.NewReader(src.String()))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := mercury.NewSolver(mercury.DefaultServer("m1"), mercury.SolverConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mercury.Replay(sol, tr, []mercury.Probe{{Machine: "m1", Node: mercury.NodeCPU}}, 60*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWhatIf compares the three ways to answer a steady-state
// what-if question ("cap machine1's CPU at 0.6 — where does the room
// settle?") on a 1000-machine room: the fitted linear surrogate
// (internal/surrogate, the POST /whatif fast path), the per-machine
// analytic SteadyState solve over every machine, and snapshotting the
// kernel and stepping it to convergence. The surrogate must be at
// least two orders of magnitude faster than either exact path — CI's
// bench smoke asserts the ratio — and the record sub-benchmark pins
// the hot-path cost of feeding it: one ring-buffer row per stride,
// zero allocations.
func BenchmarkWhatIf(b *testing.B) {
	const n = 1000
	c, err := model.DefaultCluster("room", n)
	if err != nil {
		b.Fatal(err)
	}
	sol, err := solver.New(c, solver.Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	surro, err := surrogate.New(sol, surrogate.Config{})
	if err != nil {
		b.Fatal(err)
	}

	// Excitation: piecewise-constant inputs per recording stride, so
	// every adjacent sample pair brackets one constant-input window.
	srcs := sol.SourceNames()
	base := make([]float64, len(srcs))
	sol.ReadSources(base)
	machines := sol.Machines()
	const windows = 60
	for w := 0; w < windows; w++ {
		for i, src := range srcs {
			t := base[i] - 2.1 + 2.5*math.Sin(float64(w)*0.23+float64(i)*0.9)
			if err := sol.SetSourceTemperature(src, units.Celsius(t)); err != nil {
				b.Fatal(err)
			}
		}
		for j, m := range machines {
			cpu := 0.45 + 0.25*math.Sin(float64(w)*0.37+float64(j)*0.7)
			if err := sol.SetUtilization(m, model.UtilCPU, units.Fraction(cpu)); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 60; i++ {
			sol.Step()
			surro.Record()
		}
	}
	for i, src := range srcs {
		if err := sol.SetSourceTemperature(src, units.Celsius(base[i])); err != nil {
			b.Fatal(err)
		}
	}
	if st := surro.Fit(); st.MachinesOK != st.Machines {
		b.Fatalf("fit covers %d/%d machines", st.MachinesOK, st.Machines)
	}
	sol.RunUntilSteady(0.001, 4*time.Hour)

	q := &surrogate.Query{SetUtil: []surrogate.UtilChange{
		{Machine: "machine1", Source: model.UtilCPU, Value: 0.6},
	}}

	b.Run(fmt.Sprintf("machines=%d/path=surrogate", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ans, err := surro.WhatIf(q, false)
			if err != nil {
				b.Fatal(err)
			}
			if !ans.Valid {
				b.Fatalf("surrogate declined: %s", ans.Reason)
			}
		}
	})
	b.Run(fmt.Sprintf("machines=%d/path=steadystate", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			err := sol.WhatIf(func(w *solver.Solver) error {
				if err := w.SetUtilization("machine1", model.UtilCPU, 0.6); err != nil {
					return err
				}
				max := math.Inf(-1)
				for _, m := range machines {
					temps, err := w.SteadyState(m)
					if err != nil {
						return err
					}
					for _, t := range temps {
						if float64(t) > max {
							max = float64(t)
						}
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("machines=%d/path=step-to-steady", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ans, err := surrogate.KernelWhatIf(sol, q, 1e-3, 4*time.Hour)
			if err != nil {
				b.Fatal(err)
			}
			if !ans.Valid {
				b.Fatal("kernel what-if did not converge")
			}
		}
	})
	b.Run(fmt.Sprintf("machines=%d/path=record", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sol.Step()
			surro.Record()
		}
	})
}

// BenchmarkUtilReportPath walks one interval's utilization reports for
// a rack of 16 or 96 machines through each stage of the report path —
// sampling, encoding into a reused datagram, decoding into reused
// storage, applying to the solver — and then through all of them at
// once: loopback is a batch monitord's SampleOnce over a real socket
// into a solverd, timed until the last report is applied. Every stage
// must stay at 0 allocs/op (docs/performance.md, "Utilization report
// path"); CI's bench gate enforces it.
func BenchmarkUtilReportPath(b *testing.B) {
	for _, n := range []int{16, 96} {
		c, err := model.DefaultCluster("room", n)
		if err != nil {
			b.Fatal(err)
		}
		sol, err := solver.New(c, solver.Config{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		names := sol.Machines()
		synths := make([]*procfs.Synthetic, n)
		batch := make([]monitord.BatchMachine, n)
		reports := make([]wire.UtilReport, n)
		for i := range synths {
			synths[i] = procfs.NewSynthetic(model.UtilCPU, model.UtilDisk)
			batch[i] = monitord.BatchMachine{Machine: names[i], Sampler: synths[i]}
			reports[i] = wire.UtilReport{Machine: names[i], Entries: []wire.UtilEntry{
				{Source: model.UtilCPU}, {Source: model.UtilDisk},
			}}
		}
		// churn moves a tenth of the rack, as rack-sharded does per tick.
		churn := func(i int) {
			for k := 0; k < n/10+1; k++ {
				m := (i*7 + k*13) % n
				u := units.Fraction((i+k)%100) / 100
				synths[m].Set(model.UtilCPU, u)
				reports[m].Entries[0].Util = u
			}
		}
		run := func(name string, op func(i int)) {
			b.Run(fmt.Sprintf("%s/machines=%d", name, n), func(b *testing.B) {
				op(0) // warm the reused storage
				b.ReportAllocs()
				b.ResetTimer()
				for i := 1; i <= b.N; i++ {
					op(i)
				}
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
			})
		}

		run("sample", func(i int) {
			churn(i)
			for _, s := range synths {
				if _, err := s.Sample(); err != nil {
					b.Fatal(err)
				}
			}
		})

		var dgrams [][]byte
		for off := 0; off < n; off += wire.MaxBatchMachines {
			dgrams = append(dgrams, nil)
		}
		encode := func(i int) {
			churn(i)
			for k := range dgrams {
				off := k * wire.MaxBatchMachines
				chunk := wire.UtilBatch{Reports: reports[off:min(off+wire.MaxBatchMachines, n)]}
				for r := range chunk.Reports {
					chunk.Reports[r].Seq = uint32(i)
				}
				if dgrams[k], err = wire.AppendUtilBatch(dgrams[k][:0], &chunk); err != nil {
					b.Fatal(err)
				}
			}
		}
		run("encode", encode)

		table := make(map[string]string, n)
		for _, m := range names {
			table[m] = m
		}
		intern := func(name []byte) string { return table[string(name)] }
		var decoded wire.UtilBatch
		run("decode", func(int) {
			for _, d := range dgrams {
				if err := wire.UnmarshalUtilBatchInto(&decoded, d, intern); err != nil {
					b.Fatal(err)
				}
			}
		})

		run("apply", func(i int) {
			churn(i)
			for m := range reports {
				if sol.ApplyUtilization(m, reports[m].Entries) != 0 {
					b.Fatal("unknown source")
				}
			}
		})

		srv, err := solverd.Listen("127.0.0.1:0", sol)
		if err != nil {
			b.Fatal(err)
		}
		go srv.Serve()
		d, err := monitord.New(monitord.Config{Machine: "rack1", Batch: batch, SolverAddr: srv.Addr().String()})
		if err != nil {
			b.Fatal(err)
		}
		applied := uint64(0)
		run("loopback", func(i int) {
			churn(i)
			if err := d.SampleOnce(); err != nil {
				b.Fatal(err)
			}
			applied += uint64(n)
			for spins := 0; srv.Stats().UtilUpdates.Load() < applied; spins++ {
				if spins > 1e8 {
					b.Fatalf("only %d of %d reports applied", srv.Stats().UtilUpdates.Load(), applied)
				}
				runtime.Gosched()
			}
		})
		d.Close()
		srv.Close()
	}
}
