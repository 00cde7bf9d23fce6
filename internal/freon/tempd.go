package freon

import (
	"fmt"
	"math"

	"github.com/darklab/mercury/internal/units"
)

// PDOutput computes the proportional-derivative controller of Section
// 4.1 for one component:
//
//	output_c = max(kp (Tcurr - Th) + kd (Tcurr - Tlast), 0)
//
// Freon "only run[s] the controller when the temperature of a
// component is higher than Th and force[s] output to be non-negative";
// callers gate on the threshold.
func PDOutput(kp, kd float64, curr, last, high units.Celsius) float64 {
	// Each product is rounded on its own, so arm64 cannot fuse one into
	// the sum and the output is bit-identical on every architecture.
	out := float64(kp*float64(curr-high)) + float64(kd*float64(curr-last))
	return math.Max(out, 0)
}

// compState tracks one monitored component on one server.
type compState struct {
	spec ComponentSpec
	last units.Celsius
	seen bool
	hot  bool // crossed High and not yet back under it
}

// Report is what tempd tells admd after one observation period.
type Report struct {
	Machine string
	// Temps are the observed component temperatures by node name.
	Temps map[string]units.Celsius
	// Output is the controller output (the max over hot components;
	// "output = max{output_c}"). Meaningful only when Hot.
	Output float64
	// Hot is set while any component is above its High threshold; admd
	// adjusts the load distribution on every hot report.
	Hot bool
	// HotNodes lists the components currently above High, in
	// configuration order (drives the two-stage policy's class
	// blocking).
	HotNodes []string
	// JustHot is set on the period where a component first crossed
	// High (Freon-EC counts region emergencies on this edge).
	JustHot bool
	// AllBelowLow is set when every component is below its Low
	// threshold, telling admd to lift restrictions.
	AllBelowLow bool
	// JustCool is set on the period where the machine transitioned to
	// AllBelowLow from a restricted state.
	JustCool bool
	// RedLine is set when any component reached its red-line
	// temperature; the server must shut down.
	RedLine bool
}

// Tempd is the per-server temperature daemon: it "wakes up
// periodically (once per minute ...) to check component temperatures"
// and produces a Report for admd.
type Tempd struct {
	machine    string
	sensors    Sensors
	kp, kd     float64
	comps      []compState
	restricted bool

	// nodes are the components' node names in configuration order and
	// temps the scratch a check reads them into.
	nodes []string
	temps []units.Celsius
}

// newTempd builds a tempd for one machine watching DefaultComponents;
// cfg is validated and defaulted (newCore).
func newTempd(machine string, sensors Sensors, cfg Config) *Tempd {
	t := &Tempd{machine: machine, sensors: sensors, kp: cfg.Kp, kd: cfg.Kd}
	for _, spec := range DefaultComponents() {
		t.comps = append(t.comps, compState{spec: spec})
		t.nodes = append(t.nodes, spec.Node)
	}
	t.temps = make([]units.Celsius, len(t.nodes))
	return t
}

// Check performs one observation period: read every monitored
// component (readMachine), run the PD controller for components above
// High, and classify the machine's state.
func (t *Tempd) Check() (Report, error) {
	if err := readMachine(t.sensors, t.machine, t.nodes, t.temps); err != nil {
		return Report{}, fmt.Errorf("freon: tempd %s: %w", t.machine, err)
	}
	r := Report{Machine: t.machine, Temps: map[string]units.Celsius{}, AllBelowLow: true}
	for i := range t.comps {
		c := &t.comps[i]
		curr := t.temps[i]
		r.Temps[c.spec.Node] = curr
		last := c.last
		if !c.seen {
			last = curr
		}
		if curr >= c.spec.RedLine {
			r.RedLine = true
		}
		if curr > c.spec.High {
			out := PDOutput(t.kp, t.kd, curr, last, c.spec.High)
			if out > r.Output {
				r.Output = out
			}
			r.Hot = true
			r.HotNodes = append(r.HotNodes, c.spec.Node)
			if !c.hot {
				c.hot = true
				r.JustHot = true
			}
		} else if c.hot {
			c.hot = false
		}
		if curr >= c.spec.Low {
			r.AllBelowLow = false
		}
		c.last = curr
		c.seen = true
	}
	if r.Hot {
		t.restricted = true
	}
	if r.AllBelowLow && t.restricted {
		r.JustCool = true
		t.restricted = false
	}
	return r, nil
}

// Restricted reports whether the machine currently has load
// restrictions in force (set on the first hot report, cleared when the
// machine cools below Low).
func (t *Tempd) Restricted() bool { return t.restricted }
