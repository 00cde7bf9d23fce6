package solver

import (
	"fmt"
	"math"
	"testing"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

// refSetUtilization is SetUtilization as it stood before reports were
// applied whole — one lock, two map lookups and a draw refresh per
// entry — frozen as the reference both present forms are held to.
func refSetUtilization(s *Solver, machine string, src model.UtilSource, u units.Fraction) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	mi, err := s.machine(machine)
	if err != nil {
		return err
	}
	pos, ok := s.ms[mi].shape.utilPos[src]
	if !ok {
		return &ErrUnknown{Kind: "utilization source", Name: machine + "/" + string(src)}
	}
	v := float64(u.Clamp())
	if utils := s.utilsOf(mi); math.Float64bits(v) != math.Float64bits(utils[pos]) {
		utils[pos] = v
		s.refreshDraws(mi)
		s.markDirty(mi)
	}
	return nil
}

// assertSameInputs compares the state a utilization write touches —
// stream values, the quiet and dirty flags, and the draws the next step
// steps with, refreshed as the step refreshes them — bit for bit.
func assertSameInputs(t *testing.T, label string, got, want *Solver) {
	t.Helper()
	got.mu.Lock()
	defer got.mu.Unlock()
	want.mu.Lock()
	defer want.mu.Unlock()
	for _, s := range []*Solver{got, want} {
		for mi := range s.ms {
			if s.stale[mi] {
				s.refreshDraws(mi)
			}
		}
	}
	if got.anyDirty != want.anyDirty {
		t.Errorf("%s: anyDirty %v, one-at-a-time %v", label, got.anyDirty, want.anyDirty)
	}
	for m := range want.ms {
		name := want.ms[m].name
		if got.dirty[m] != want.dirty[m] || got.quiet[m] != want.quiet[m] {
			t.Errorf("%s: %s dirty/quiet %v/%v, one-at-a-time %v/%v", label, name, got.dirty[m], got.quiet[m], want.dirty[m], want.quiet[m])
		}
		gu, wu := got.utilsOf(m), want.utilsOf(m)
		for i := range wu {
			if math.Float64bits(gu[i]) != math.Float64bits(wu[i]) {
				t.Errorf("%s: %s %s = %v, one-at-a-time %v", label, name, want.ms[m].shape.utilKeys[i], gu[i], wu[i])
			}
		}
	}
	for i := range want.draws {
		for l, w := range want.draws[i] {
			if g := got.draws[i][l]; math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("%s: draw row %d lane %d = %v, one-at-a-time %v", label, i, l, g, w)
			}
		}
	}
}

// TestApplyUtilizationMatchesSetUtilization: a whole report applied at
// once must leave exactly what its entries leave when set one at a
// time — stream values, draws, dirty/quiet, and the next 50 steps.
func TestApplyUtilizationMatchesSetUtilization(t *testing.T) {
	const n = 3
	build := func() *Solver {
		c, err := model.DefaultCluster("room", n)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(c, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= n; i++ {
			if err := s.SetUtilization(fmt.Sprintf("machine%d", i), model.UtilCPU, units.Fraction(i)/10); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	whole, single, ref := build(), build(), build()
	for i := 0; i < 20 && (whole.LastStepDelta() != 0 || i == 0); i++ {
		whole.StepN(2000)
		single.StepN(2000)
		ref.StepN(2000)
	}
	if whole.LastStepDelta() != 0 || quietCount(whole) != n {
		t.Fatal("room did not reach its fixed point")
	}

	reports := []struct {
		name        string
		machine     int
		entries     []model.UtilSample
		wantUnknown int
		wantQuiet   int // machines still skipped right after the report; -1 = mid-transient, not checked
	}{
		{"repeats the current values", 0, []model.UtilSample{{Source: model.UtilCPU, Util: 0.1}, {Source: model.UtilDisk, Util: 0}}, 0, n},
		{"two streams change", 0, []model.UtilSample{{Source: model.UtilCPU, Util: 0.8}, {Source: model.UtilDisk, Util: 0.3}}, 0, n - 1},
		{"one of two changes", 1, []model.UtilSample{{Source: model.UtilCPU, Util: 0.2}, {Source: model.UtilDisk, Util: 0.6}}, 0, -1},
		{"a source twice, ending where it began", 2, []model.UtilSample{{Source: model.UtilCPU, Util: 0.9}, {Source: model.UtilCPU, Util: 0.3}}, 0, -1},
		{"an unknown source among known ones", 0, []model.UtilSample{{Source: model.UtilCPU, Util: 0.4}, {Source: "fan", Util: 0.5}, {Source: model.UtilDisk, Util: 0.9}}, 1, -1},
		{"values outside [0,1] and NaN", 1, []model.UtilSample{{Source: model.UtilCPU, Util: units.Fraction(math.NaN())}, {Source: model.UtilDisk, Util: 1.7}}, 0, -1},
		{"no entries", 2, nil, 0, -1},
		{"no such machine", n, []model.UtilSample{{Source: model.UtilCPU, Util: 0.5}}, 1, -1},
	}
	names := whole.Machines()
	for _, r := range reports {
		if got := whole.ApplyUtilization(r.machine, r.entries); got != r.wantUnknown {
			t.Errorf("%s: ApplyUtilization reported %d unknown entries, want %d", r.name, got, r.wantUnknown)
		}
		unknown := 0
		for _, e := range r.entries {
			if r.machine >= n {
				unknown++
				continue
			}
			wantErr := refSetUtilization(ref, names[r.machine], e.Source, e.Util)
			err := single.SetUtilization(names[r.machine], e.Source, e.Util)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Errorf("%s: SetUtilization(%s) = %v, reference %v", r.name, e.Source, err, wantErr)
			}
			if wantErr != nil {
				unknown++
			}
		}
		if unknown != r.wantUnknown {
			t.Errorf("%s: one at a time rejected %d entries, want %d", r.name, unknown, r.wantUnknown)
		}
		if r.wantQuiet >= 0 && quietCount(ref) != r.wantQuiet {
			t.Errorf("%s: %d machines quiet, want %d", r.name, quietCount(ref), r.wantQuiet)
		}
		for _, got := range []*Solver{whole, single} {
			assertSameInputs(t, r.name, got, ref)
		}
		ref.StepN(50)
		for _, got := range []*Solver{whole, single} {
			got.StepN(50)
			assertBitIdentical(t, r.name+", 50 steps on", got, ref)
			assertSameInputs(t, r.name+", 50 steps on", got, ref)
		}
	}
}

// TestApplyUtilizationDoesNotAllocate: solverd calls this once per
// machine per second.
func TestApplyUtilizationDoesNotAllocate(t *testing.T) {
	s := newTestSolver(t, Config{})
	entries := []model.UtilSample{{Source: model.UtilCPU, Util: 0.5}, {Source: model.UtilDisk, Util: 0.25}}
	k := 0
	if n := testing.AllocsPerRun(100, func() {
		k++
		entries[0].Util = units.Fraction(k%9) / 9
		s.ApplyUtilization(0, entries)
		_ = s.SetUtilization("m1", model.UtilCPU, entries[0].Util)
	}); n != 0 {
		t.Errorf("ApplyUtilization+SetUtilization: %v allocs/op, want 0", n)
	}
}
