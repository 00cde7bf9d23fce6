// Package fiddle implements the thermal-emergency tool of Section 2.3:
// it "can force the solver to change any constant or temperature
// on-line", letting experiments emulate air-conditioner failures,
// blocked inlets, multi-speed fans, and CPU-driven thermal management.
//
// The package provides three layers: Apply maps a wire.FiddleOp onto a
// running solver; Script parses and runs the paper's shell-like fiddle
// scripts ("sleep 100 / fiddle machine1 temperature inlet 30"); and
// Client sends operations to a remote solver daemon over UDP.
package fiddle

import (
	"fmt"

	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/units"
	"github.com/darklab/mercury/internal/wire"
)

// Applier applies one fiddle operation. Client implements it over UDP;
// a test drives a script against an in-process solver through Apply.
type Applier interface {
	Apply(op *wire.FiddleOp) error
}

// Apply executes one validated fiddle operation against a solver.
func Apply(s *solver.Solver, op *wire.FiddleOp) error {
	if err := wire.ValidateFiddle(op); err != nil {
		return err
	}
	str := op.Strings
	fl := op.Floats
	switch op.Op {
	case wire.OpPinInlet:
		return s.PinInlet(str[0], units.Celsius(fl[0]))
	case wire.OpUnpinInlet:
		return s.UnpinInlet(str[0])
	case wire.OpSetNodeTemp:
		return s.SetNodeTemperature(str[0], str[1], units.Celsius(fl[0]))
	case wire.OpSetSourceTemp:
		return s.SetSourceTemperature(str[0], units.Celsius(fl[0]))
	case wire.OpSetHeatK:
		return s.SetHeatK(str[0], str[1], str[2], units.WattsPerKelvin(fl[0]))
	case wire.OpSetAirFraction:
		return s.SetAirFraction(str[0], str[1], str[2], units.Fraction(fl[0]))
	case wire.OpSetFanFlow:
		return s.SetFanFlow(str[0], units.CubicFeetPerMinute(fl[0]))
	case wire.OpSetPowerScale:
		return s.SetPowerScale(str[0], str[1], units.Fraction(fl[0]))
	case wire.OpSetMachinePower:
		return s.SetMachinePower(str[0], fl[0] != 0)
	default:
		return fmt.Errorf("fiddle: unhandled op %s", wire.OpName(op.Op))
	}
}
