package thermo

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"github.com/darklab/mercury/internal/units"
)

func TestTransferDirection(t *testing.T) {
	// Hot object 1, cold object 2: heat flows 1 -> 2 (positive).
	q := Transfer(2.0, 40, 20, time.Second)
	if q != 40 {
		t.Errorf("Transfer(2, 40, 20, 1s) = %v, want 40J", q)
	}
	// Reversed temperatures reverse the sign.
	q = Transfer(2.0, 20, 40, time.Second)
	if q != -40 {
		t.Errorf("Transfer(2, 20, 40, 1s) = %v, want -40J", q)
	}
	// Equal temperatures transfer nothing.
	if q := Transfer(2.0, 30, 30, time.Hour); q != 0 {
		t.Errorf("Transfer at equal T = %v, want 0", q)
	}
}

func TestTransferAntisymmetry(t *testing.T) {
	// Q(1->2) == -Q(2->1): the solver relies on this to conserve energy.
	f := func(k, t1, t2 float64, ms uint16) bool {
		if math.IsNaN(k) || math.IsInf(k, 0) || math.IsNaN(t1) || math.IsNaN(t2) ||
			math.IsInf(t1, 0) || math.IsInf(t2, 0) {
			return true
		}
		d := time.Duration(ms) * time.Millisecond
		a := Transfer(units.WattsPerKelvin(k), units.Celsius(t1), units.Celsius(t2), d)
		b := Transfer(units.WattsPerKelvin(k), units.Celsius(t2), units.Celsius(t1), d)
		return a == -b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransferScalesWithTime(t *testing.T) {
	one := Transfer(0.75, 50, 21.6, time.Second)
	ten := Transfer(0.75, 50, 21.6, 10*time.Second)
	if math.Abs(float64(ten)-10*float64(one)) > 1e-9 {
		t.Errorf("transfer not linear in time: 1s=%v 10s=%v", one, ten)
	}
}

func TestDeltaT(t *testing.T) {
	// Table 1 CPU: 0.151 kg of aluminum-equivalent. 135.296 J warms it 1 K.
	dt, err := DeltaT(units.Joules(0.151*896), 0.151, units.AluminumSpecificHeat)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(dt)-1) > 1e-9 {
		t.Errorf("DeltaT = %v, want 1C", dt)
	}
}

func TestDeltaTErrors(t *testing.T) {
	if _, err := DeltaT(10, 0, 896); err == nil {
		t.Error("DeltaT with zero mass: want error")
	}
	if _, err := DeltaT(10, -1, 896); err == nil {
		t.Error("DeltaT with negative mass: want error")
	}
	if _, err := DeltaT(10, 1, 0); err == nil {
		t.Error("DeltaT with zero specific heat: want error")
	}
}

func TestDeltaTSignMatchesHeat(t *testing.T) {
	f := func(q float64) bool {
		if math.IsNaN(q) || math.IsInf(q, 0) {
			return true
		}
		dt, err := DeltaT(units.Joules(q), 0.5, 896)
		if err != nil {
			return false
		}
		switch {
		case q > 0:
			return dt > 0
		case q < 0:
			return dt < 0
		default:
			return dt == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinearEndpoints(t *testing.T) {
	// Table 1 CPU: (7, 31) W.
	l, err := NewLinear(7, 31)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Power(0); got != 7 {
		t.Errorf("P(0) = %v, want 7", got)
	}
	if got := l.Power(1); got != 31 {
		t.Errorf("P(1) = %v, want 31", got)
	}
	if got := l.Power(0.5); got != 19 {
		t.Errorf("P(0.5) = %v, want 19", got)
	}
}

func TestLinearClampsUtilization(t *testing.T) {
	l := Linear{PBase: 7, PMax: 31}
	if got := l.Power(-0.5); got != 7 {
		t.Errorf("P(-0.5) = %v, want clamp to base 7", got)
	}
	if got := l.Power(1.5); got != 31 {
		t.Errorf("P(1.5) = %v, want clamp to max 31", got)
	}
}

func TestLinearValidation(t *testing.T) {
	if _, err := NewLinear(-1, 10); err == nil {
		t.Error("negative base: want error")
	}
	if _, err := NewLinear(10, 5); err == nil {
		t.Error("max < base: want error")
	}
	if _, err := NewLinear(40, 40); err != nil {
		t.Errorf("constant-style linear model: unexpected error %v", err)
	}
}

func TestLinearMonotone(t *testing.T) {
	l := Linear{PBase: 9, PMax: 14} // Table 1 disk platters
	f := func(a, b float64) bool {
		ua := units.Fraction(a).Clamp()
		ub := units.Fraction(b).Clamp()
		if ua > ub {
			ua, ub = ub, ua
		}
		return l.Power(ua) <= l.Power(ub)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConstantModel(t *testing.T) {
	c := Constant(40) // Table 1 power supply
	for _, u := range []units.Fraction{0, 0.3, 1} {
		if got := c.Power(u); got != 40 {
			t.Errorf("Constant.Power(%v) = %v, want 40", u, got)
		}
	}
	if c.Base() != 40 || c.Max() != 40 {
		t.Error("Constant Base/Max mismatch")
	}
}

func TestPiecewiseValidation(t *testing.T) {
	if _, err := NewPiecewise([]units.Fraction{0, 1}, []units.Watts{7}); err == nil {
		t.Error("mismatched lengths: want error")
	}
	if _, err := NewPiecewise([]units.Fraction{0.1, 1}, []units.Watts{7, 31}); err == nil {
		t.Error("grid not starting at 0: want error")
	}
	if _, err := NewPiecewise([]units.Fraction{0, 0.9}, []units.Watts{7, 31}); err == nil {
		t.Error("grid not ending at 1: want error")
	}
	if _, err := NewPiecewise([]units.Fraction{0, 0.5, 0.5, 1}, []units.Watts{7, 10, 11, 31}); err == nil {
		t.Error("non-increasing grid: want error")
	}
	if _, err := NewPiecewise([]units.Fraction{0, 1}, []units.Watts{-1, 31}); err == nil {
		t.Error("negative power: want error")
	}
}

func TestPiecewiseInterpolation(t *testing.T) {
	pw, err := NewPiecewise(
		[]units.Fraction{0, 0.5, 1},
		[]units.Watts{7, 25, 31},
	)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		u    units.Fraction
		want units.Watts
	}{
		{0, 7}, {0.25, 16}, {0.5, 25}, {0.75, 28}, {1, 31},
		{-1, 7}, {2, 31},
	}
	for _, tc := range cases {
		if got := pw.Power(tc.u); math.Abs(float64(got-tc.want)) > 1e-9 {
			t.Errorf("Power(%v) = %v, want %v", tc.u, got, tc.want)
		}
	}
	if pw.Base() != 7 || pw.Max() != 31 {
		t.Error("Piecewise Base/Max mismatch")
	}
}

func TestPiecewiseMatchesLinearOnTwoPoints(t *testing.T) {
	pw, err := NewPiecewise([]units.Fraction{0, 1}, []units.Watts{7, 31})
	if err != nil {
		t.Fatal(err)
	}
	l := Linear{PBase: 7, PMax: 31}
	f := func(u float64) bool {
		uu := units.Fraction(u).Clamp()
		return math.Abs(float64(pw.Power(uu)-l.Power(uu))) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestThermalMass(t *testing.T) {
	if got := ThermalMass(2, 896); got != 1792 {
		t.Errorf("ThermalMass = %v, want 1792", got)
	}
}
