package units

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestCelsiusKelvinRoundTrip(t *testing.T) {
	f := func(c float64) bool {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return true
		}
		got := Celsius(c).Kelvin().Celsius()
		return math.Abs(float64(got)-c) < 1e-9*math.Max(1, math.Abs(c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKelvinOffset(t *testing.T) {
	if got := Celsius(0).Kelvin(); math.Abs(float64(got)-273.15) > 1e-12 {
		t.Errorf("0C = %v, want 273.15K", got)
	}
	if got := Celsius(100).Kelvin(); math.Abs(float64(got)-373.15) > 1e-12 {
		t.Errorf("100C = %v, want 373.15K", got)
	}
}

func TestCelsiusValid(t *testing.T) {
	cases := []struct {
		c    Celsius
		want bool
	}{
		{21.6, true},
		{AbsoluteZero, true},
		{AbsoluteZero - 0.001, false},
		{Celsius(math.NaN()), false},
		{Celsius(math.Inf(1)), false},
		{Celsius(math.Inf(-1)), false},
	}
	for _, tc := range cases {
		if got := tc.c.Valid(); got != tc.want {
			t.Errorf("Celsius(%v).Valid() = %v, want %v", float64(tc.c), got, tc.want)
		}
	}
}

func TestWattsEnergy(t *testing.T) {
	if got := Watts(10).Energy(5 * time.Second); got != 50 {
		t.Errorf("10W for 5s = %v, want 50J", got)
	}
	if got := Watts(31).Energy(time.Millisecond); math.Abs(float64(got)-0.031) > 1e-12 {
		t.Errorf("31W for 1ms = %v, want 0.031J", got)
	}
}

func TestJoulesOver(t *testing.T) {
	if got := Joules(100).Over(4 * time.Second); got != 25 {
		t.Errorf("100J over 4s = %v, want 25W", got)
	}
	if got := Joules(100).Over(0); got != 0 {
		t.Errorf("100J over 0s = %v, want 0W", got)
	}
	if got := Joules(100).Over(-time.Second); got != 0 {
		t.Errorf("100J over -1s = %v, want 0W", got)
	}
}

func TestEnergyPowerRoundTrip(t *testing.T) {
	f := func(w float64, ms uint16) bool {
		if math.IsNaN(w) || math.IsInf(w, 0) || math.Abs(w) > 1e300 {
			return true
		}
		d := time.Duration(int(ms)+1) * time.Millisecond
		e := Watts(w).Energy(d)
		if math.IsInf(float64(e), 0) {
			return true // product overflowed float64; nothing to round-trip
		}
		got := e.Over(d)
		return math.Abs(float64(got)-w) <= 1e-9*math.Max(1, math.Abs(w))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFractionClamp(t *testing.T) {
	cases := []struct {
		in, want Fraction
	}{
		{0.5, 0.5},
		{-0.1, 0},
		{1.5, 1},
		{0, 0},
		{1, 1},
		{Fraction(math.NaN()), 0},
	}
	for _, tc := range cases {
		if got := tc.in.Clamp(); got != tc.want {
			t.Errorf("Fraction(%v).Clamp() = %v, want %v", float64(tc.in), got, tc.want)
		}
	}
}

func TestFractionClampAlwaysValid(t *testing.T) {
	f := func(v float64) bool { return Fraction(v).Clamp().Valid() }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFractionPercent(t *testing.T) {
	if got := Fraction(0.42).Percent(); math.Abs(got-42) > 1e-12 {
		t.Errorf("Percent = %v, want 42", got)
	}
}

func TestCFMConversion(t *testing.T) {
	// 38.6 cfm (Table 1 fan) is about 0.01822 m^3/s.
	got := CubicFeetPerMinute(38.6).CubicMetersPerSecond()
	if math.Abs(got-0.018216) > 1e-4 {
		t.Errorf("38.6cfm = %v m^3/s, want about 0.0182", got)
	}
}

func TestStringFormats(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{Celsius(21.6).String(), "21.60C"},
		{Kelvin(294.75).String(), "294.75K"},
		{Watts(31).String(), "31.00W"},
		{Joules(410).String(), "410.00J"},
		{Kilograms(0.336).String(), "0.336kg"},
		{JoulesPerKgK(896).String(), "896.0J/(kg.K)"},
		{WattsPerKelvin(2).String(), "2.00W/K"},
		{Fraction(0.42).String(), "42.0%"},
		{CubicFeetPerMinute(38.6).String(), "38.60cfm"},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("String() = %q, want %q", tc.got, tc.want)
		}
	}
}

func TestMaterialConstants(t *testing.T) {
	// Paper Table 1 material assumptions.
	if AluminumSpecificHeat != 896 {
		t.Errorf("aluminum c = %v, want 896", AluminumSpecificHeat)
	}
	if FR4SpecificHeat != 1245 {
		t.Errorf("FR4 c = %v, want 1245", FR4SpecificHeat)
	}
	if AirSpecificHeat != 1006 {
		t.Errorf("air c = %v, want 1006", AirSpecificHeat)
	}
}
