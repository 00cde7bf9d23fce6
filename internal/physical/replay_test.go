package physical

import (
	"testing"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/stats"
	"github.com/darklab/mercury/internal/trace"
	"github.com/darklab/mercury/internal/workload"
)

// The reference server and a solver replay a trace on one schedule, so
// measured and emulated series are sampled at the same instants: from a
// fresh solver, and from one resumed at a non-zero Now() (mercury-solver
// -load-state, the scaleout example's second half).
func TestReplaySharesTheSolverSchedule(t *testing.T) {
	const every = 10 * time.Second
	tr := workload.Combined("server", 7, 600*time.Second, 50*time.Second)
	meas := NewRefServer(42).Replay(tr, every)
	if want := int(tr.Duration()/every) + 1; meas.CPUAir.Len() != want {
		t.Fatalf("measured %d samples over %v, want %d", meas.CPUAir.Len(), tr.Duration(), want)
	}
	for _, resume := range []time.Duration{0, 137 * time.Second} {
		s, err := solver.NewSingle(model.DefaultServer("server"), solver.Config{})
		if err != nil {
			t.Fatal(err)
		}
		s.Run(resume)
		if s.Now() != resume {
			t.Fatalf("solver resumed at %v, want %v", s.Now(), resume)
		}
		emulated, err := trace.Replay(s, tr, []trace.Probe{{Machine: "server", Node: model.NodeCPUAir}}, every)
		if err != nil {
			t.Fatal(err)
		}
		for _, measured := range []*stats.Series{meas.CPUAir, meas.Disk} {
			em := emulated[0]
			if em.Len() != measured.Len() {
				t.Fatalf("resumed at %v: %d emulated samples, %d measured", resume, em.Len(), measured.Len())
			}
			for i, p := range measured.Points {
				if em.Points[i].At != p.At {
					t.Fatalf("resumed at %v: sample %d emulated at %v, measured at %v", resume, i, em.Points[i].At, p.At)
				}
			}
		}
	}
}
