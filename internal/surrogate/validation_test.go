package surrogate

import (
	"math"
	"testing"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/solver"
)

// validationTol is the documented surrogate accuracy bound (see
// docs/surrogate.md): every steady per-node prediction must land
// within this many °C of stepping the real kernel to its fixed point.
const validationTol = 0.5

// TestSurrogateValidation sweeps the cluster shapes the experiments
// registry is built from — the Table 1 room (table1/fig11/fig12), the
// recirculating rack (recirc), and the single calibrated server
// (fig5–fig8) — and asserts the surrogate's steady answers track the
// kernel within validationTol for representative what-if queries.
func TestSurrogateValidation(t *testing.T) {
	shapes := []struct {
		name    string
		build   func(t *testing.T) *solver.Solver
		queries func(sol *solver.Solver) map[string]*Query
	}{
		{
			name: "table1_room",
			build: func(t *testing.T) *solver.Solver {
				cl, err := model.DefaultCluster("room", 6)
				if err != nil {
					t.Fatal(err)
				}
				sol, err := solver.New(cl, solver.Config{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				return sol
			},
			queries: func(sol *solver.Solver) map[string]*Query {
				return map[string]*Query{
					"noop":      {ReturnTemps: true},
					"power_off": {PowerOff: []string{"machine2", "machine5"}, ReturnTemps: true},
					"util_cap": {SetUtil: []UtilChange{
						{Machine: "machine1", Source: model.UtilCPU, Value: 0.25},
						{Machine: "machine4", Source: model.UtilCPU, Value: 0.25},
					}, ReturnTemps: true},
					"ac_step": {SetSource: []SourceChange{{Source: model.NodeAC, TempC: 18.0}}, ReturnTemps: true},
				}
			},
		},
		{
			name: "rack_recirc",
			build: func(t *testing.T) *solver.Solver {
				cl, err := model.RackCluster("room", 2, 4, nil)
				if err != nil {
					t.Fatal(err)
				}
				sol, err := solver.New(cl, solver.Config{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				return sol
			},
			queries: func(sol *solver.Solver) map[string]*Query {
				return map[string]*Query{
					"noop": {ReturnTemps: true},
					// Powering off a top-of-rack machine is the case the
					// recirculation experiment motivates: its inlet is fed
					// by the machines below it.
					"off_top":     {PowerOff: []string{model.RackMachine(1, 4)}, ReturnTemps: true},
					"off_bottom":  {PowerOff: []string{model.RackMachine(2, 1)}, ReturnTemps: true},
					"ac_degraded": {SetSource: []SourceChange{{Source: model.NodeAC, TempC: 23.5}}, ReturnTemps: true},
				}
			},
		},
		{
			name: "single_server",
			build: func(t *testing.T) *solver.Solver {
				sol, err := solver.NewSingle(model.DefaultServer("server"), solver.Config{})
				if err != nil {
					t.Fatal(err)
				}
				return sol
			},
			queries: func(sol *solver.Solver) map[string]*Query {
				name := sol.Machines()[0]
				return map[string]*Query{
					"noop":      {ReturnTemps: true},
					"busy":      {SetUtil: []UtilChange{{Machine: name, Source: model.UtilCPU, Value: 0.65}}, ReturnTemps: true},
					"pin_inlet": {PinInlet: []InletPin{{Machine: name, TempC: 22.2}}, ReturnTemps: true},
				}
			},
		},
	}

	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			sol := shape.build(t)
			m, err := New(sol, Config{})
			if err != nil {
				t.Fatal(err)
			}
			excite(t, sol, m, 120)
			st := m.Fit()
			if st.MachinesOK != st.Machines {
				f := m.fit.Load()
				for i := range f.machines {
					if !f.machines[i].ok {
						t.Errorf("machine %s: %s (pairs=%d resid=%g)",
							m.layout[i].Name, f.machines[i].reason, f.machines[i].pairs, f.machines[i].resid)
					}
				}
				t.Fatalf("fit covers %d/%d machines", st.MachinesOK, st.Machines)
			}
			for qname, q := range shape.queries(sol) {
				t.Run(qname, func(t *testing.T) {
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
					if d := math.Abs(fast.MaxTemp - slow.MaxTemp); d > validationTol {
						t.Errorf("max temp: surrogate %.3f vs kernel %.3f (Δ %.3f > %.2f)",
							fast.MaxTemp, slow.MaxTemp, d, validationTol)
					}
					for machine, nodes := range slow.Temps {
						for node, kt := range nodes {
							stp, ok := fast.Temps[machine][node]
							if !ok {
								t.Fatalf("surrogate missing %s/%s", machine, node)
							}
							if d := math.Abs(stp - kt); d > validationTol {
								t.Errorf("%s/%s: surrogate %.3f vs kernel %.3f (Δ %.3f > %.2f)",
									machine, node, stp, kt, d, validationTol)
							}
						}
					}
				})
			}
		})
	}
}
