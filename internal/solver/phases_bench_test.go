package solver

import (
	"fmt"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

// BenchmarkStepPhases splits a tick of the room-kernel benchmark's
// room (RackCluster 500×40, 20 000 machines) into the parts
// solver.parallel_speedup (Workers:2 ÷ Workers:1) depends on. Each
// iteration times one tick through Step, then the same tick's phases
// run shard by shard on the calling goroutine, so both see the same
// host conditions:
//
//   - tick-us: one Step, the pool's barriers and wakeups included;
//   - inlet-us, kernel-us: the longest shard's inlet phase
//     (runInletPhase) and step phase (runStepPhase) run alone — the
//     least a pool tick can take;
//   - wait-us: tick-us minus both, i.e. barrier wait, wakeups, and
//     whatever the participants cost each other in shared caches and
//     memory bandwidth.
//
// The file uses only phase functions the per-machine kernel had too, so
// it also runs unchanged against that kernel.
func BenchmarkStepPhases(b *testing.B) {
	c, err := model.RackCluster("room", 500, 40, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s, err := New(c, Config{Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			for i, name := range s.Machines() {
				if err := s.SetUtilization(name, model.UtilCPU, units.Fraction(i%10)/10); err != nil {
					b.Fatal(err)
				}
			}
			s.StepN(5)
			b.ResetTimer()
			var tick, inlet, kernel time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				s.Step()
				tick += time.Since(t0)
				var in, st time.Duration
				s.mu.Lock()
				for sh := range s.shards {
					t1 := time.Now()
					s.runInletPhase(sh)
					t2 := time.Now()
					s.runStepPhase(sh)
					t3 := time.Now()
					in, st = max(in, t2.Sub(t1)), max(st, t3.Sub(t2))
				}
				s.mu.Unlock()
				inlet += in
				kernel += st
			}
			us := func(d time.Duration) float64 { return float64(d.Microseconds()) / float64(b.N) }
			b.ReportMetric(us(tick), "tick-us")
			b.ReportMetric(us(inlet), "inlet-us")
			b.ReportMetric(us(kernel), "kernel-us")
			b.ReportMetric(us(tick-inlet-kernel), "wait-us")
		})
	}
}
