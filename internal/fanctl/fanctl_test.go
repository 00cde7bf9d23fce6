package fanctl

import (
	"errors"
	"testing"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/units"
)

// fakeMachine lets tests set the observed temperature directly and
// records fan commands.
type fakeMachine struct {
	temp  units.Celsius
	flows []units.CubicFeetPerMinute
	fail  bool
}

func (f *fakeMachine) Temperature(machine, node string) (units.Celsius, error) {
	if f.fail {
		return 0, errors.New("sensor offline")
	}
	return f.temp, nil
}

func (f *fakeMachine) SetFanFlow(machine string, flow units.CubicFeetPerMinute) error {
	f.flows = append(f.flows, flow)
	return nil
}

// flow is the last fan flow the controller commanded.
func (f *fakeMachine) flow() units.CubicFeetPerMinute { return f.flows[len(f.flows)-1] }

// tableOne is a policy for the Table 1 server: nominal 38.6 cfm,
// stepping up at CPU 60 and 67 C.
func tableOne() Config {
	return Config{
		Node:       "cpu",
		Base:       38.6,
		Levels:     []Level{{Above: 60, Flow: 55}, {Above: 67, Flow: 75}},
		Hysteresis: 2,
	}
}

func TestValidate(t *testing.T) {
	if err := tableOne().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []Config{
		{Base: 38.6, Levels: []Level{{60, 55}}},                              // no node
		{Node: "cpu", Levels: []Level{{60, 55}}},                             // no base
		{Node: "cpu", Base: 38.6},                                            // no levels
		{Node: "cpu", Base: 38.6, Levels: []Level{{60, 55}}, Hysteresis: -1}, // bad hysteresis
		{Node: "cpu", Base: 38.6, Levels: []Level{{60, 55}, {60, 70}}},       // dup threshold
		{Node: "cpu", Base: 38.6, Levels: []Level{{60, 30}}},                 // flow below base
		{Node: "cpu", Base: 38.6, Levels: []Level{{60, 55}, {70, 50}}},       // non-increasing flow
	}
	for i, cfg := range bad {
		if cfg.Hysteresis == 0 {
			cfg.Hysteresis = 2
		}
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestStepUpAndDownWithHysteresis(t *testing.T) {
	fm := &fakeMachine{temp: 40}
	c, err := New("m1", fm, fm, tableOne())
	if err != nil {
		t.Fatal(err)
	}
	// Initial actuation at base.
	if len(fm.flows) != 1 || fm.flows[0] != 38.6 {
		t.Fatalf("initial flows = %v", fm.flows)
	}
	// Cool: stays at base.
	if err := c.Tick(); err != nil {
		t.Fatal(err)
	}
	if flow := fm.flow(); flow != 38.6 {
		t.Errorf("flow = %v, want 38.6", flow)
	}

	// Crosses first threshold.
	fm.temp = 61
	c.Tick()
	if flow := fm.flow(); flow != 55 {
		t.Errorf("after 61C flow = %v, want 55", flow)
	}
	// Just inside hysteresis band (60-2=58): no step down.
	fm.temp = 59
	c.Tick()
	if flow := fm.flow(); flow != 55 {
		t.Errorf("hysteresis violated: flow = %v", flow)
	}
	// Below the band: back to base.
	fm.temp = 57
	c.Tick()
	if flow := fm.flow(); flow != 38.6 {
		t.Errorf("after cooling flow = %v", flow)
	}
	// Jump straight to the top level.
	fm.temp = 70
	c.Tick()
	if flow := fm.flow(); flow != 75 {
		t.Errorf("hot flow = %v, want 75", flow)
	}
	// Drop far: all the way back down in one tick.
	fm.temp = 30
	c.Tick()
	if flow := fm.flow(); flow != 38.6 {
		t.Errorf("cold flow = %v", flow)
	}
	if c.Changes() != 4 {
		t.Errorf("changes = %d, want 4", c.Changes())
	}
}

func TestNoHuntingAtBoundary(t *testing.T) {
	fm := &fakeMachine{temp: 40}
	c, _ := New("m1", fm, fm, tableOne())
	// Oscillate right around the threshold inside the hysteresis band:
	// exactly one change should happen.
	before := c.Changes()
	for i := 0; i < 10; i++ {
		if i%2 == 0 {
			fm.temp = 60.5
		} else {
			fm.temp = 59.5
		}
		c.Tick()
	}
	if c.Changes()-before != 1 {
		t.Errorf("changes = %d, want 1 (no hunting)", c.Changes()-before)
	}
}

func TestSensorErrorPropagates(t *testing.T) {
	fm := &fakeMachine{temp: 40}
	c, _ := New("m1", fm, fm, tableOne())
	fm.fail = true
	if err := c.Tick(); err == nil {
		t.Error("sensor failure: want error")
	}
}

func TestAgainstSolverCoolsHotCPU(t *testing.T) {
	// End to end: a fan controller on the real solver keeps a loaded
	// CPU measurably cooler than a fixed fan.
	steady := func(withController bool) float64 {
		s, err := solver.NewSingle(model.DefaultServer("m1"), solver.Config{})
		if err != nil {
			t.Fatal(err)
		}
		s.SetUtilization("m1", model.UtilCPU, 1)
		var c *Controller
		if withController {
			c, err = New("m1", s, s, tableOne())
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4*3600; i++ {
			s.Step()
			if c != nil && i%10 == 0 {
				if err := c.Tick(); err != nil {
					t.Fatal(err)
				}
			}
		}
		temp, err := s.Temperature("m1", model.NodeCPU)
		if err != nil {
			t.Fatal(err)
		}
		return float64(temp)
	}
	fixed := steady(false)
	controlled := steady(true)
	if controlled >= fixed-1 {
		t.Errorf("fan control did not help: fixed=%v controlled=%v", fixed, controlled)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	fm := &fakeMachine{}
	if _, err := New("m1", fm, fm, Config{}); err == nil {
		t.Error("zero config: want error")
	}
}
