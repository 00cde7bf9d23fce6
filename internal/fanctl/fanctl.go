// Package fanctl implements variable-speed fan control, one of the
// paper's stated extensions (Section 7: "we are currently extending
// our models to consider clock throttling and variable-speed fans ...
// these behaviors are well-defined and essentially depend on
// temperature, which Mercury emulates"). A Controller watches one
// temperature node and steps the machine's fan flow through a level
// table with hysteresis, the way server firmware does; the actuation
// path is exactly the solver's fiddle hook for fan speed, so the same
// controller can drive a remote daemon through the fiddle client.
package fanctl

import (
	"fmt"
	"sort"

	"github.com/darklab/mercury/internal/units"
)

// Sensors reads component temperatures (the solver implements this).
type Sensors interface {
	Temperature(machine, node string) (units.Celsius, error)
}

// Actuator changes a machine's fan throughput (the solver's
// SetFanFlow, or a fiddle client's equivalent).
type Actuator interface {
	SetFanFlow(machine string, flow units.CubicFeetPerMinute) error
}

// Level maps a temperature threshold to a fan speed: the fan runs at
// Flow while the observed temperature is at or above Above (the
// highest matching level wins).
type Level struct {
	Above units.Celsius
	Flow  units.CubicFeetPerMinute
}

// Config describes one machine's fan policy.
type Config struct {
	// Node is the temperature the firmware reacts to, e.g. "cpu".
	Node string
	// Base is the fan speed below every level's threshold.
	Base units.CubicFeetPerMinute
	// Levels are the step-up thresholds; they are sorted by Above.
	Levels []Level
	// Hysteresis is subtracted from a level's threshold before
	// stepping back down, preventing hunting around a boundary.
	// Default 2 C.
	Hysteresis units.Celsius
}

// Validate checks the policy.
func (c Config) Validate() error {
	if c.Node == "" {
		return fmt.Errorf("fanctl: node required")
	}
	if c.Base <= 0 {
		return fmt.Errorf("fanctl: base flow must be positive, got %v", c.Base)
	}
	if len(c.Levels) == 0 {
		return fmt.Errorf("fanctl: at least one level required")
	}
	if c.Hysteresis < 0 {
		return fmt.Errorf("fanctl: negative hysteresis %v", c.Hysteresis)
	}
	prevT := units.Celsius(-1e9)
	prevF := c.Base
	for _, l := range c.Levels {
		if l.Above <= prevT {
			return fmt.Errorf("fanctl: level thresholds must strictly increase (%v after %v)", l.Above, prevT)
		}
		if l.Flow <= prevF {
			return fmt.Errorf("fanctl: level flows must strictly increase (%v after %v)", l.Flow, prevF)
		}
		prevT, prevF = l.Above, l.Flow
	}
	return nil
}

// Controller steps one machine's fan.
type Controller struct {
	machine  string
	cfg      Config
	sensors  Sensors
	actuator Actuator
	level    int // -1 = base
	changes  int
}

// New builds a controller; the fan starts at Base.
func New(machine string, sensors Sensors, actuator Actuator, cfg Config) (*Controller, error) {
	if cfg.Hysteresis == 0 {
		cfg.Hysteresis = 2
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sort.Slice(cfg.Levels, func(i, j int) bool { return cfg.Levels[i].Above < cfg.Levels[j].Above })
	c := &Controller{machine: machine, cfg: cfg, sensors: sensors, actuator: actuator, level: -1}
	if err := actuator.SetFanFlow(machine, cfg.Base); err != nil {
		return nil, err
	}
	return c, nil
}

// Changes returns how many speed changes the controller has made.
func (c *Controller) Changes() int { return c.changes }

func (c *Controller) flowAt(level int) units.CubicFeetPerMinute {
	if level < 0 {
		return c.cfg.Base
	}
	return c.cfg.Levels[level].Flow
}

// Tick reads the temperature and adjusts the fan if a threshold was
// crossed. Call it on the firmware's polling period (once per emulated
// second is typical).
func (c *Controller) Tick() error {
	temp, err := c.sensors.Temperature(c.machine, c.cfg.Node)
	if err != nil {
		return fmt.Errorf("fanctl: %s: %w", c.machine, err)
	}
	target := c.level
	// Step up through every level whose threshold we meet.
	for i := len(c.cfg.Levels) - 1; i >= 0; i-- {
		if temp >= c.cfg.Levels[i].Above {
			if i > target {
				target = i
			}
			break
		}
	}
	// Step down only past the hysteresis band.
	for target >= 0 && temp < c.cfg.Levels[target].Above-c.cfg.Hysteresis {
		target--
	}
	if target == c.level {
		return nil
	}
	if err := c.actuator.SetFanFlow(c.machine, c.flowAt(target)); err != nil {
		return fmt.Errorf("fanctl: %s: %w", c.machine, err)
	}
	c.level = target
	c.changes++
	return nil
}
