package trace

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/solver"
)

// BenchmarkTraceReplay measures offline mode: one emulated hour of
// trace replay with one probe, per iteration.
func BenchmarkTraceReplay(b *testing.B) {
	var src strings.Builder
	for s := 0; s <= 3600; s += 10 {
		fmt.Fprintf(&src, "%d m1 cpu %0.2f\n", s, float64(s%100)/100)
	}
	tr, err := ReadTrace(strings.NewReader(src.String()))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := solver.NewSingle(model.DefaultServer("m1"), solver.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Replay(sol, tr, []Probe{{Machine: "m1", Node: model.NodeCPU}}, 60*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}
