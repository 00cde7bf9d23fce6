package surrogate_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/surrogate"
	"github.com/darklab/mercury/internal/units"
)

// BenchmarkWhatIf compares the three ways to answer a steady-state
// what-if question ("cap machine1's CPU at 0.6 — where does the room
// settle?") on a 1000-machine room: the fitted linear surrogate
// (the POST /whatif fast path), the per-machine analytic SteadyState
// solve over every machine, and snapshotting the kernel and stepping
// it to convergence. The surrogate must be at least two orders of
// magnitude faster than either exact path — the bench stage of
// scripts/ci.sh asserts the ratio against SteadyState — and the record
// sub-benchmark times the hot-path cost of feeding it: one ring-buffer
// row per stride (TestRecordZeroAllocs holds it at zero allocations).
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
