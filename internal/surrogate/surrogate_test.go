package surrogate

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/units"
)

// excite drives the solver through `windows` recording windows of
// deterministic per-machine utilization levels, stepping Config.Every
// ticks per window and recording every tick (so one sample is stored
// per window). Piecewise-constant-per-window inputs keep each training
// pair an exact snapshot of the linear step map; the window-to-window
// swings give the least squares a well-conditioned input matrix (a
// flat trajectory is collinear) and define the fitted envelope.
func excite(tb testing.TB, sol *solver.Solver, m *Model, windows int) {
	tb.Helper()
	names := sol.Machines()
	srcs := sol.SourceNames()
	base := make([]float64, len(srcs))
	sol.ReadSources(base)
	for w := 0; w < windows; w++ {
		// Sweep the supply sources so the fitted inlet envelope covers
		// the setpoints what-if queries will ask about.
		for i, src := range srcs {
			v := base[i] - 2.1 + 2.5*math.Sin(float64(w)*0.23+float64(i)*0.9)
			if err := sol.SetSourceTemperature(src, units.Celsius(v)); err != nil {
				tb.Fatalf("set source %s: %v", src, err)
			}
		}
		for j, name := range names {
			u := 0.45 + 0.25*math.Sin(float64(w)*0.37+float64(j)*0.7)
			if err := sol.SetUtilization(name, model.UtilCPU, units.Fraction(u)); err != nil {
				tb.Fatalf("set cpu util: %v", err)
			}
			d := 0.30 + 0.20*math.Sin(float64(w)*0.29+float64(j)*1.3)
			if err := sol.SetUtilization(name, model.UtilDisk, units.Fraction(d)); err != nil {
				tb.Fatalf("set disk util: %v", err)
			}
		}
		for i := 0; i < m.cfg.Every; i++ {
			sol.Step()
			m.Record()
		}
	}
}

// fitted builds a solver over the default Table 1 room plus a freshly
// fitted surrogate trained on `windows` recording windows.
func fitted(tb testing.TB, machines, windows int, cfg Config) (*solver.Solver, *Model) {
	tb.Helper()
	cl, err := model.DefaultCluster("room", machines)
	if err != nil {
		tb.Fatalf("cluster: %v", err)
	}
	sol, err := solver.New(cl, solver.Config{Workers: 1})
	if err != nil {
		tb.Fatalf("solver: %v", err)
	}
	m, err := New(sol, cfg)
	if err != nil {
		tb.Fatalf("surrogate: %v", err)
	}
	excite(tb, sol, m, windows)
	m.Fit()
	return sol, m
}

func TestFitCoversAllMachines(t *testing.T) {
	_, m := fitted(t, 4, 120, Config{})
	st := m.Stats()
	if st.MachinesOK != 4 {
		f := m.fit.Load()
		for i := range f.machines {
			if !f.machines[i].ok {
				t.Errorf("machine %s: %s (pairs=%d resid=%g)", m.layout[i].Name, f.machines[i].reason, f.machines[i].pairs, f.machines[i].resid)
			}
		}
		t.Fatalf("MachinesOK = %d, want 4", st.MachinesOK)
	}
	if st.MaxResidualC > 0.1 {
		t.Fatalf("max residual %g°C above tolerance", st.MaxResidualC)
	}
}

// TestPredictMatchesKernel is the core accuracy check: the surrogate's
// steady answer must match stepping the real kernel to steady state
// within the documented tolerance (docs/surrogate.md).
func TestPredictMatchesKernel(t *testing.T) {
	sol, m := fitted(t, 4, 120, Config{})
	queries := map[string]*Query{
		"noop":      {ReturnTemps: true},
		"power_off": {PowerOff: []string{"machine1"}, ReturnTemps: true},
		"util_step": {SetUtil: []UtilChange{{Machine: "machine2", Source: model.UtilCPU, Value: 0.6}}, ReturnTemps: true},
		"pin_inlet": {PinInlet: []InletPin{{Machine: "machine3", TempC: 18.2}}, ReturnTemps: true},
		"ac_step":   {SetSource: []SourceChange{{Source: "ac", TempC: 17.8}}, ReturnTemps: true},
	}
	const tol = 0.5 // °C, documented in docs/surrogate.md
	for name, q := range queries {
		t.Run(name, func(t *testing.T) {
			fast, err := m.Predict(q)
			if err != nil {
				t.Fatalf("predict: %v", err)
			}
			if !fast.Valid {
				t.Fatalf("surrogate declined: %s", fast.Reason)
			}
			slow, err := KernelWhatIf(sol, q, 1e-4, kernelHorizon)
			if err != nil {
				t.Fatalf("kernel: %v", err)
			}
			if d := math.Abs(fast.MaxTemp - slow.MaxTemp); d > tol {
				t.Errorf("max temp: surrogate %.3f vs kernel %.3f (Δ %.3f > %.2f)", fast.MaxTemp, slow.MaxTemp, d, tol)
			}
			for machine, nodes := range slow.Temps {
				for node, kt := range nodes {
					st, ok := fast.Temps[machine][node]
					if !ok {
						t.Fatalf("surrogate missing %s/%s", machine, node)
					}
					if d := math.Abs(st - kt); d > tol {
						t.Errorf("%s/%s: surrogate %.3f vs kernel %.3f (Δ %.3f > %.2f)", machine, node, st, kt, d, tol)
					}
				}
			}
		})
	}
}

// TestRecordZeroAllocs pins the hot-path guarantee: recording a
// trajectory sample after every solver step must not allocate.
func TestRecordZeroAllocs(t *testing.T) {
	sol, m := fitted(t, 4, 10, Config{})
	allocs := testing.AllocsPerRun(100, func() {
		sol.Step()
		m.Record()
	})
	if allocs != 0 {
		t.Fatalf("Step+Record allocates %v times/op, want 0", allocs)
	}
}

func TestDeclineBeforeFit(t *testing.T) {
	cl, _ := model.DefaultCluster("room", 2)
	sol, err := solver.New(cl, solver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(sol, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := m.Predict(&Query{})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Valid || ans.Reason == "" {
		t.Fatalf("expected decline before any fit, got %+v", ans)
	}
}

// TestDeclineStaleGeneration: a fiddle that changes the physics (fan
// flow) must invalidate the fit until the next refit.
func TestDeclineStaleGeneration(t *testing.T) {
	sol, m := fitted(t, 2, 120, Config{})
	if ans, _ := m.Predict(&Query{}); !ans.Valid {
		t.Fatalf("pre-fiddle predict declined: %s", ans.Reason)
	}
	if err := sol.SetFanFlow("machine1", 80); err != nil {
		t.Fatal(err)
	}
	ans, err := m.Predict(&Query{})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Valid {
		t.Fatal("predict accepted a stale fit after SetFanFlow changed the dynamics")
	}
	// Re-recording under the new generation and refitting recovers.
	excite(t, sol, m, 120)
	m.Fit()
	if ans, _ := m.Predict(&Query{}); !ans.Valid {
		t.Fatalf("refit predict declined: %s", ans.Reason)
	}
}

// TestDeclineOutsideEnvelope: utilization far beyond anything recorded
// must be declined, and WhatIf's kernel fallback must still answer.
func TestDeclineOutsideEnvelope(t *testing.T) {
	_, m := fitted(t, 2, 120, Config{})
	q := &Query{SetUtil: []UtilChange{{Machine: "machine1", Source: model.UtilCPU, Value: 1.0}}}
	ans, err := m.Predict(q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Valid {
		t.Fatal("predict accepted utilization far outside the fitted envelope")
	}
	full, err := m.WhatIf(q, true)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Valid || full.Source != "kernel" {
		t.Fatalf("kernel fallback: %+v", full)
	}
	if full.Reason == "" {
		t.Fatal("kernel fallback lost the surrogate's decline reason")
	}
	if m.KernelFallbacksTotal() != 1 {
		t.Fatalf("fallbacks = %d, want 1", m.KernelFallbacksTotal())
	}
}

func TestPredictUnknownNames(t *testing.T) {
	_, m := fitted(t, 2, 120, Config{})
	cases := []*Query{
		{PowerOff: []string{"nope"}},
		{SetUtil: []UtilChange{{Machine: "machine1", Source: "nope", Value: 0.5}}},
		{PinInlet: []InletPin{{Machine: "nope", TempC: 20}}},
		{SetSource: []SourceChange{{Source: "nope", TempC: 20}}},
	}
	for i, q := range cases {
		_, err := m.Predict(q)
		var unk *solver.ErrUnknown
		if !errors.As(err, &unk) {
			t.Errorf("case %d: error %v, want *solver.ErrUnknown", i, err)
		}
	}
}

// TestKernelWhatIfRestores: the slow path must leave the solver — and
// the model generation the surrogate depends on — bit-identical.
func TestKernelWhatIfRestores(t *testing.T) {
	sol, _ := fitted(t, 3, 60, Config{})
	before := sol.SaveState()
	gen := sol.ModelGeneration()
	q := &Query{
		PowerOff:  []string{"machine1"},
		PinInlet:  []InletPin{{Machine: "machine2", TempC: 30}},
		SetSource: []SourceChange{{Source: "ac", TempC: 20}},
	}
	if _, err := KernelWhatIf(sol, q, 1e-3, kernelHorizon); err != nil {
		t.Fatal(err)
	}
	after := sol.SaveState()
	if !reflect.DeepEqual(before, after) {
		t.Fatal("KernelWhatIf did not restore the solver state bit-identically")
	}
	if g := sol.ModelGeneration(); g != gen {
		t.Fatalf("model generation %d after what-if, want %d", g, gen)
	}
}

func TestPowerImpactRanksHeat(t *testing.T) {
	sol, m := fitted(t, 4, 120, Config{})
	// Skew one machine hot: its removal should improve the room max
	// more than removing an idle machine. Every machine's load is set
	// explicitly so no leftover excitation level outranks the hot one.
	for _, name := range sol.Machines() {
		cpu := units.Fraction(0.25)
		if name == "machine2" {
			cpu = 0.65
		}
		if err := sol.SetUtilization(name, model.UtilCPU, cpu); err != nil {
			t.Fatal(err)
		}
		if err := sol.SetUtilization(name, model.UtilDisk, 0.2); err != nil {
			t.Fatal(err)
		}
	}
	sol.Run(30 * time.Minute)
	hot, ok := m.PowerImpact("machine2", false)
	if !ok {
		t.Fatal("PowerImpact declined for machine2")
	}
	cool, ok := m.PowerImpact("machine1", false)
	if !ok {
		t.Fatal("PowerImpact declined for machine1")
	}
	if hot >= cool {
		t.Fatalf("removing the hot machine predicts %.3f°C, removing the idle one %.3f°C; expected hot < cool", hot, cool)
	}
	if _, ok := m.PowerImpact("nope", false); ok {
		t.Fatal("PowerImpact accepted an unknown machine")
	}
}

// TestPartitionedSolverRejected: the surrogate needs the whole room.
func TestPartitionedSolverRejected(t *testing.T) {
	cl, err := model.RackCluster("rk", 2, 2, []units.Fraction{0.2})
	if err != nil {
		t.Fatal(err)
	}
	regions, err := solver.PartitionRegions(cl, 2)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solver.New(cl, solver.Config{Regions: regions, RegionIndex: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(sol, Config{}); err == nil {
		t.Fatal("New accepted a partitioned solver")
	}
}

func TestStatsCounters(t *testing.T) {
	_, m := fitted(t, 2, 100, Config{})
	if _, err := m.Predict(&Query{}); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Samples != 100 || st.Fits != 1 || st.Queries != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.FitGeneration != st.ModelGeneration {
		t.Fatalf("fit generation %d != model generation %d", st.FitGeneration, st.ModelGeneration)
	}
}
