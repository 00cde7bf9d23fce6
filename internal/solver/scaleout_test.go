package solver_test

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/telemetry"
	"github.com/darklab/mercury/internal/units"
)

// The stepping loop as the daemons run it — a loaded room, telemetry
// sampling every tenth step, a quiescent room — timed by the benchmarks
// and held at zero allocations by the tests. Only the public API is
// used, so the file runs unchanged against an older solver.

// observedRoom builds c at Workers workers (0 for auto) with every
// machine's CPU loaded and returns step, whose call i steps the room
// once and, every tenth call, samples every probe into a ring, as
// solverd does.
func observedRoom(tb testing.TB, c *model.Cluster, workers int) (step func(i int)) {
	tb.Helper()
	s, err := solver.New(c, solver.Config{Workers: workers})
	if err != nil {
		tb.Fatal(err)
	}
	for i := range c.Machines {
		if err := s.SetUtilization(c.Machines[i].Name, model.UtilCPU,
			units.Fraction(float64((i+1)%10)/10)); err != nil {
			tb.Fatal(err)
		}
	}
	machines, nodes := s.Probes()
	probes := make([]telemetry.TempProbe, len(machines))
	for i := range machines {
		probes[i] = telemetry.TempProbe{Machine: machines[i], Node: nodes[i]}
	}
	temps := telemetry.NewTempTable(probes, 64)
	fill := s.ReadAllTemps // hoisted: a fresh method value per call would allocate
	return func(i int) {
		s.Step()
		if (i+1)%10 == 0 {
			temps.Sample(time.Duration(i+1)*time.Second, fill)
		}
	}
}

// idleRoom is a DefaultCluster room of n machines with no utilization,
// stepped to its exact fixed point, where the active set skips every
// machine and a step only accrues energy.
func idleRoom(tb testing.TB, n int) *solver.Solver {
	tb.Helper()
	c, err := model.DefaultCluster("room", n)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := solver.New(c, solver.Config{Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	// Base power still warms the machines.
	s.Step()
	for i := 0; i < 40 && s.LastStepDelta() != 0; i++ {
		s.StepN(2000)
	}
	if s.LastStepDelta() != 0 {
		tb.Fatal("room did not reach its exact fixed point")
	}
	return s
}

// TestObservedStepDoesNotAllocate: a step of a loaded room on the
// shard-owned pool, with telemetry sampling on solverd's cadence,
// allocates nothing (BenchmarkScaleoutStep's loop).
func TestObservedStepDoesNotAllocate(t *testing.T) {
	c, err := model.DefaultCluster("room", 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		step := observedRoom(t, c, workers)
		// One run is one sampling period, so that AllocsPerRun's
		// integer average cannot round a sample's allocation away.
		i := 0
		if a := testing.AllocsPerRun(50, func() {
			for end := i + 10; i < end; i++ {
				step(i)
			}
		}); a != 0 {
			t.Errorf("workers=%d: %v allocs per ten observed steps, want 0", workers, a)
		}
	}
}

// TestIdleStepDoesNotAllocate: a step of a quiescent room allocates
// nothing (BenchmarkActiveSetIdle's loop).
func TestIdleStepDoesNotAllocate(t *testing.T) {
	s := idleRoom(t, 100)
	if a := testing.AllocsPerRun(50, s.Step); a != 0 {
		t.Errorf("%v allocs per quiescent step, want 0", a)
	}
	if s.LastStepDelta() != 0 {
		t.Error("the room left its fixed point")
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
// (every 10th step into a ring buffer), so the reported ns/op covers
// the observed configuration; TestObservedStepDoesNotAllocate holds
// the loop at 0 allocs.
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
				step := observedRoom(b, cluster(n), workers)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step(i)
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
// is given. It must stay within noise of the uninstrumented loop
// (docs/observability.md).
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
// keeps its activeset=on name so measurements stay comparable with
// earlier ones.
func BenchmarkActiveSetIdle(b *testing.B) {
	const n = 1000
	b.Run(fmt.Sprintf("machines=%d/activeset=on", n), func(b *testing.B) {
		s := idleRoom(b, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
		b.StopTimer()
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "machine-steps/s")
	})
}

// BenchmarkSolverSteadyState times the analytic fixed point used by
// calibration sweeps and the Fluent comparison.
func BenchmarkSolverSteadyState(b *testing.B) {
	s, err := solver.NewSingle(model.DefaultServer("m1"), solver.Config{})
	if err != nil {
		b.Fatal(err)
	}
	s.SetUtilization("m1", model.UtilCPU, 0.7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SteadyState("m1"); err != nil {
			b.Fatal(err)
		}
	}
}
