package alert

import (
	"fmt"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/telemetry"
)

// BenchmarkAlertEval measures one full rule-set evaluation over a
// 100-machine room with warm (but not alerting) temperatures — the
// steady-state cost the solver tick pays with -alerts enabled.
// TestEvalDoesNotAllocate holds it to 0 allocs/op.
func BenchmarkAlertEval(b *testing.B) {
	const machines = 100
	var probes []Probe
	for i := 0; i < machines; i++ {
		m := fmt.Sprintf("machine%d", i+1)
		probes = append(probes,
			Probe{Machine: m, Node: "cpu", Low: 64, High: 67, RedLine: 71},
			Probe{Machine: m, Node: "disk_platters", Low: 62, High: 65, RedLine: 69},
			Probe{Machine: m, Node: "cpu-air"},
		)
	}
	temps := make([]float64, len(probes))
	for i := range temps {
		temps[i] = 65 // warm enough to exercise the predictive path
	}
	eng, err := New(Config{
		Step:     time.Second,
		Probes:   probes,
		Fill:     func(dst []float64) int { return copy(dst, temps) },
		Health:   func() (uint64, uint64, uint64) { return 0, 0, 0 },
		Events:   telemetry.NewEventLog(1024, nil),
		Registry: telemetry.NewRegistry(),
	})
	if err != nil {
		b.Fatal(err)
	}
	tick := uint64(0)
	for ; tick < 120; tick++ {
		eng.EvalTick(tick) // fill the predictive history rings
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick++
		eng.EvalTick(tick)
	}
	b.ReportMetric(float64(machines)*float64(b.N)/b.Elapsed().Seconds(), "machine-evals/s")
}
