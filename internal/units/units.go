// Package units defines typed physical quantities used throughout the
// Mercury suite. Distinct named types for temperature, power, energy,
// mass and heat capacity prevent accidental unit mix-ups in the thermal
// model; all are thin wrappers over float64 with explicit conversion
// helpers, so arithmetic stays cheap and allocation-free.
package units

import (
	"fmt"
	"math"
	"time"
)

// Celsius is a temperature on the Celsius scale. The Mercury solver and
// all user-visible interfaces (sensor library, fiddle) speak Celsius,
// matching the paper.
type Celsius float64

// Kelvin is an absolute temperature. Only temperature *differences*
// matter in Newton's law of cooling, so Kelvin appears mostly in
// derivations and in the CFD substrate.
type Kelvin float64

// AbsoluteZero is absolute zero expressed in Celsius.
const AbsoluteZero Celsius = -273.15

// Kelvin converts a Celsius temperature to Kelvin.
func (c Celsius) Kelvin() Kelvin { return Kelvin(float64(c) - float64(AbsoluteZero)) }

// Celsius converts a Kelvin temperature to Celsius.
func (k Kelvin) Celsius() Celsius { return Celsius(float64(k) + float64(AbsoluteZero)) }

// String renders the temperature with two decimals, e.g. "21.60C".
func (c Celsius) String() string { return fmt.Sprintf("%.2fC", float64(c)) }

// String renders the temperature with two decimals, e.g. "294.75K".
func (k Kelvin) String() string { return fmt.Sprintf("%.2fK", float64(k)) }

// Valid reports whether the temperature is a finite value at or above
// absolute zero.
func (c Celsius) Valid() bool {
	f := float64(c)
	return !math.IsNaN(f) && !math.IsInf(f, 0) && c >= AbsoluteZero
}

// Watts is power: energy transferred per unit time.
type Watts float64

// String renders the power with two decimals, e.g. "31.00W".
func (w Watts) String() string { return fmt.Sprintf("%.2fW", float64(w)) }

// Joules is energy (or heat, which is energy in transit).
type Joules float64

// String renders the energy with two decimals, e.g. "410.00J".
func (j Joules) String() string { return fmt.Sprintf("%.2fJ", float64(j)) }

// Energy returns the energy transferred by power w applied for d.
func (w Watts) Energy(d time.Duration) Joules {
	return Joules(float64(w) * d.Seconds())
}

// Over returns the average power that delivers energy j over d.
// It returns 0 for non-positive durations.
func (j Joules) Over(d time.Duration) Watts {
	s := d.Seconds()
	if s <= 0 {
		return 0
	}
	return Watts(float64(j) / s)
}

// Kilograms is mass.
type Kilograms float64

// String renders the mass with three decimals, e.g. "0.336kg".
func (m Kilograms) String() string { return fmt.Sprintf("%.3fkg", float64(m)) }

// JoulesPerKgK is specific heat capacity: the energy required to raise
// one kilogram of a material by one Kelvin.
type JoulesPerKgK float64

// String renders the heat capacity, e.g. "896.0J/(kg.K)".
func (c JoulesPerKgK) String() string { return fmt.Sprintf("%.1fJ/(kg.K)", float64(c)) }

// WattsPerKelvin is a lumped heat-transfer coefficient: the k constant
// of Equation 2 in the paper, which folds together the convective or
// conductive transfer coefficient and the contact surface area.
type WattsPerKelvin float64

// String renders the coefficient, e.g. "2.00W/K".
func (k WattsPerKelvin) String() string { return fmt.Sprintf("%.2fW/K", float64(k)) }

// Fraction is a dimensionless ratio in [0,1]: component utilization or
// an air-flow split fraction.
type Fraction float64

// Clamp returns f limited to the closed interval [0,1]. NaN clamps to 0.
func (f Fraction) Clamp() Fraction {
	if math.IsNaN(float64(f)) || f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// Valid reports whether f is a finite value in [0,1].
func (f Fraction) Valid() bool {
	v := float64(f)
	return !math.IsNaN(v) && !math.IsInf(v, 0) && f >= 0 && f <= 1
}

// Percent returns the fraction scaled to [0,100].
func (f Fraction) Percent() float64 { return float64(f) * 100 }

// String renders the fraction as a percentage, e.g. "42.0%".
func (f Fraction) String() string { return fmt.Sprintf("%.1f%%", f.Percent()) }

// CubicFeetPerMinute is a volumetric air-flow rate, the unit used by fan
// datasheets (and by Table 1 of the paper).
type CubicFeetPerMinute float64

// CubicMetersPerSecond converts the flow rate to SI units.
func (f CubicFeetPerMinute) CubicMetersPerSecond() float64 {
	const cubicFeetPerCubicMeter = 35.3146667
	return float64(f) / cubicFeetPerCubicMeter / 60
}

// String renders the flow, e.g. "38.60cfm".
func (f CubicFeetPerMinute) String() string { return fmt.Sprintf("%.2fcfm", float64(f)) }

// AirDensity is the density of air near room temperature, kg/m^3.
const AirDensity = 1.184

// AirSpecificHeat is the specific heat capacity of air at constant
// pressure near room temperature.
const AirSpecificHeat JoulesPerKgK = 1006

// AluminumSpecificHeat is the specific heat capacity the paper assumes
// for the disk drive components and the CPU heat sink.
const AluminumSpecificHeat JoulesPerKgK = 896

// FR4SpecificHeat is the specific heat capacity of FR4 circuit-board
// laminate, assumed for the motherboard.
const FR4SpecificHeat JoulesPerKgK = 1245
