// Package thermo implements the simplified heat-transfer physics that
// Mercury is built on (Section 2.1 of the paper): conservation of
// energy, Newton's law of cooling with a lumped constant k, a linear
// utilization-to-power model, and constant-pressure heat capacity.
package thermo

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/darklab/mercury/internal/units"
)

// Transfer returns the heat moved from object 1 to object 2 during d,
// following Newton's law of cooling (Equation 2):
//
//	Q = k * (T1 - T2) * time
//
// A positive result means object 1 lost heat to object 2.
func Transfer(k units.WattsPerKelvin, t1, t2 units.Celsius, d time.Duration) units.Joules {
	return units.Joules(float64(k) * (float64(t1) - float64(t2)) * d.Seconds())
}

// DeltaT returns the temperature change of an object of mass m and
// specific heat capacity c that gained heat q (Equation 5):
//
//	dT = q / (m * c)
//
// It returns an error for non-positive thermal mass, which would make
// the model ill-defined.
func DeltaT(q units.Joules, m units.Kilograms, c units.JoulesPerKgK) (units.Celsius, error) {
	mc := float64(m) * float64(c)
	if mc <= 0 || math.IsNaN(mc) {
		return 0, fmt.Errorf("thermo: non-positive thermal mass m*c = %v", mc)
	}
	return units.Celsius(float64(q) / mc), nil
}

// ThermalMass returns m*c, the energy needed to warm the object by 1 K.
func ThermalMass(m units.Kilograms, c units.JoulesPerKgK) units.Joules {
	return units.Joules(float64(m) * float64(c))
}

// PowerModel maps a component utilization to its power draw
// (Equation 3's P(utilization)). Implementations must be safe for
// concurrent use by multiple goroutines.
type PowerModel interface {
	// Power returns the average power drawn at the given utilization.
	Power(util units.Fraction) units.Watts
	// Base returns the idle power draw.
	Base() units.Watts
	// Max returns the fully-utilized power draw.
	Max() units.Watts
}

// Linear is the paper's default power model (Equation 4):
//
//	P(u) = Pbase + u * (Pmax - Pbase)
//
// The zero value draws no power at any utilization.
type Linear struct {
	PBase units.Watts
	PMax  units.Watts
}

// NewLinear builds a Linear model, validating that 0 <= base <= max.
func NewLinear(base, max units.Watts) (Linear, error) {
	if base < 0 || max < base {
		return Linear{}, fmt.Errorf("thermo: invalid linear power model base=%v max=%v", base, max)
	}
	return Linear{PBase: base, PMax: max}, nil
}

// Power implements PowerModel. Utilization is clamped to [0,1].
func (l Linear) Power(util units.Fraction) units.Watts {
	u := float64(util.Clamp())
	return l.PBase + units.Watts(u*float64(l.PMax-l.PBase))
}

// Base implements PowerModel.
func (l Linear) Base() units.Watts { return l.PBase }

// Max implements PowerModel.
func (l Linear) Max() units.Watts { return l.PMax }

// Utilization inverts the linear model: it returns the utilization at
// which the model draws p. Used by the performance-counter front end,
// which estimates power directly and reports a synthetic "low-level
// utilization" in the [Pbase, Pmax] range (Section 2.3). For degenerate
// models (Pmax == Pbase) it returns 0.
func (l Linear) Utilization(p units.Watts) units.Fraction {
	span := float64(l.PMax - l.PBase)
	if span <= 0 {
		return 0
	}
	return units.Fraction((float64(p) - float64(l.PBase)) / span).Clamp()
}

// Constant is a power model for components whose draw does not vary
// with utilization, such as Table 1's power supply (40 W, 40 W) and
// motherboard (4 W, 4 W).
type Constant units.Watts

// Power implements PowerModel.
func (c Constant) Power(units.Fraction) units.Watts { return units.Watts(c) }

// Base implements PowerModel.
func (c Constant) Base() units.Watts { return units.Watts(c) }

// Max implements PowerModel.
func (c Constant) Max() units.Watts { return units.Watts(c) }

// Piecewise interpolates power over an increasing utilization grid. It
// replaces the default linear formulation for components whose draw is
// not linear in high-level utilization (Section 2.1 notes the default
// "can be easily replaced by a more sophisticated one").
type Piecewise struct {
	utils  []units.Fraction
	powers []units.Watts
}

// ErrBadBreakpoints is returned by NewPiecewise for an invalid grid.
var ErrBadBreakpoints = errors.New("thermo: piecewise breakpoints must start at 0, end at 1, and strictly increase")

// NewPiecewise builds a piecewise-linear model from parallel slices of
// breakpoints. The utilization grid must start at 0, end at 1, and be
// strictly increasing; powers must be non-negative.
func NewPiecewise(utils []units.Fraction, powers []units.Watts) (*Piecewise, error) {
	if len(utils) != len(powers) || len(utils) < 2 {
		return nil, fmt.Errorf("thermo: need matching slices of at least 2 breakpoints, got %d and %d", len(utils), len(powers))
	}
	if utils[0] != 0 || utils[len(utils)-1] != 1 {
		return nil, ErrBadBreakpoints
	}
	for i := 1; i < len(utils); i++ {
		if utils[i] <= utils[i-1] {
			return nil, ErrBadBreakpoints
		}
	}
	for _, p := range powers {
		if p < 0 {
			return nil, fmt.Errorf("thermo: negative power breakpoint %v", p)
		}
	}
	pw := &Piecewise{
		utils:  append([]units.Fraction(nil), utils...),
		powers: append([]units.Watts(nil), powers...),
	}
	return pw, nil
}

// Power implements PowerModel by linear interpolation between the two
// breakpoints bracketing util.
func (p *Piecewise) Power(util units.Fraction) units.Watts {
	u := util.Clamp()
	// Binary search for the bracketing segment.
	lo, hi := 0, len(p.utils)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if p.utils[mid] <= u {
			lo = mid
		} else {
			hi = mid
		}
	}
	u0, u1 := float64(p.utils[lo]), float64(p.utils[hi])
	p0, p1 := float64(p.powers[lo]), float64(p.powers[hi])
	if u1 == u0 {
		return units.Watts(p0)
	}
	frac := (float64(u) - u0) / (u1 - u0)
	return units.Watts(p0 + float64(frac*(p1-p0)))
}

// Breakpoints returns copies of the utilization grid and the power
// values at each breakpoint. Serializers (e.g. the dot-language
// printer) use it to round-trip the model.
func (p *Piecewise) Breakpoints() ([]units.Fraction, []units.Watts) {
	return append([]units.Fraction(nil), p.utils...), append([]units.Watts(nil), p.powers...)
}

// Base implements PowerModel.
func (p *Piecewise) Base() units.Watts { return p.powers[0] }

// Max implements PowerModel.
func (p *Piecewise) Max() units.Watts { return p.powers[len(p.powers)-1] }
