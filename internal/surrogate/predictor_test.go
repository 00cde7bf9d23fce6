package surrogate

import (
	"math"
	"sort"
	"testing"

	"github.com/darklab/mercury/internal/freon"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/solver"
)

// A fitted Model is directly usable as Freon-EC's predictor.
var _ freon.ThermalPredictor = (*Model)(nil)

// TestPredictiveRankingKernelVerified builds the asymmetric room the
// predictive mode exists for — one recirculating rack, where machines
// at different heights have genuinely different thermal impact — and
// checks that the surrogate's PowerImpact ranking of power-off
// candidates matches the ranking obtained by stepping the real kernel
// to steady state for every candidate. Static region order cannot see
// this asymmetry: all three machines share one rack, hence one region.
func TestPredictiveRankingKernelVerified(t *testing.T) {
	cl, err := model.RackCluster("room", 1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solver.New(cl, solver.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(sol, Config{})
	if err != nil {
		t.Fatal(err)
	}
	excite(t, sol, m, 120)
	if st := m.Fit(); st.MachinesOK != st.Machines {
		t.Fatalf("fit covers %d/%d machines", st.MachinesOK, st.Machines)
	}

	machines := sol.Machines()
	type ranked struct {
		name          string
		surro, kernel float64
	}
	var rows []ranked
	for _, name := range machines {
		s, ok := m.PowerImpact(name, false)
		if !ok {
			t.Fatalf("PowerImpact declined for %s", name)
		}
		q := &Query{PowerOff: []string{name}}
		k, err := KernelWhatIf(sol, q, 1e-4, kernelHorizon)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, ranked{name: name, surro: s, kernel: k.MaxTemp})
		if d := math.Abs(s - k.MaxTemp); d > validationTol {
			t.Errorf("power off %s: surrogate %.3f vs kernel %.3f (Δ %.3f > %.2f)",
				name, s, k.MaxTemp, d, validationTol)
		}
	}

	bySurro := append([]ranked(nil), rows...)
	byKernel := append([]ranked(nil), rows...)
	sort.Slice(bySurro, func(i, j int) bool { return bySurro[i].surro < bySurro[j].surro })
	sort.Slice(byKernel, func(i, j int) bool { return byKernel[i].kernel < byKernel[j].kernel })
	for i := range rows {
		if bySurro[i].name != byKernel[i].name {
			t.Fatalf("candidate ranking diverged at %d: surrogate %v, kernel %v", i, bySurro, byKernel)
		}
	}

	// The room really is asymmetric: candidates must not be
	// interchangeable, or the test proves nothing about ranking.
	if byKernel[0].kernel+0.05 > byKernel[len(byKernel)-1].kernel {
		t.Fatalf("kernel impacts too close to rank meaningfully: %v", byKernel)
	}
}
