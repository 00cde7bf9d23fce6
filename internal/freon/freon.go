// Package freon implements the paper's thermal-emergency manager for
// server clusters (Section 4). Freon monitors component temperatures
// through per-server temperature daemons (tempd), and an admission-
// control daemon (admd) at the load balancer shifts load away from hot
// servers by shrinking their LVS weights and capping their concurrent
// connections — "remote throttling". Freon-EC (Section 4.2) combines
// the thermal policy with energy conservation: it turns servers off
// when projected utilization allows, choosing machines by physical
// region so replacements dodge the emergency. The traditional baseline
// policy simply turns servers off when a component red-lines.
//
// The three policies share one skeleton — the tempds, the admd, the
// report log and trace, the red-line shutdown and the /state rows —
// and each adds only its reaction to the reports. Each is a Policy: a
// driver calls TickPoll and TickPeriod at the cadences its Config
// names (Config.Ticks).
package freon

import (
	"fmt"
	"time"

	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/telemetry"
	"github.com/darklab/mercury/internal/units"
)

// Policy is what a driver runs: TickPoll every Config().ConnPoll and
// TickPeriod every Config().Period, with StateSnapshot readable from
// another goroutine. *Freon, *EC and *Traditional implement it.
type Policy interface {
	TickPoll() error
	TickPeriod() error
	Config() Config
	StateSnapshot() Snapshot
}

// Sensors reads component temperatures. The solver (direct or through
// the sensor library) implements this.
type Sensors interface {
	Temperature(machine, node string) (units.Celsius, error)
}

// Utils reads component utilizations, as monitord reports them.
type Utils interface {
	Utilization(machine string, src model.UtilSource) (units.Fraction, error)
}

// Balancer is the slice of LVS that Freon drives. *lvs.Balancer
// implements it.
type Balancer interface {
	SetWeight(name string, weight float64) error
	Weight(name string) (float64, error)
	SetConnLimit(name string, limit int) error
	ActiveConns(name string) (int, error)
	TakePeakConns(name string) (int, error)
	Quiesce(name string) error
	Resume(name string) error
	TotalWeight() float64
	SetClassBlocked(name, class string, blocked bool) error
}

// Power turns machines on and off (cluster reconfiguration and
// red-line shutdowns).
type Power interface {
	SetPower(machine string, on bool) error
}

// Thresholds are one component's control temperatures: the policy
// engages above High, restrictions lift when everything drops below
// Low, and RedLine forces a shutdown ("the maximum temperature that
// the component can reach without serious degradation to its
// reliability").
type Thresholds struct {
	High    units.Celsius
	Low     units.Celsius
	RedLine units.Celsius
}

// ComponentSpec names a monitored component and its thresholds.
// DefaultComponents is the table every policy watches.
type ComponentSpec struct {
	// Node is the thermal-model node tempd watches (e.g. "cpu").
	Node string
	// Util is the utilization stream that drives this component, used
	// by Freon-EC's capacity projections.
	Util model.UtilSource
	// ShedClass names the request content class that loads this
	// component hardest; the two-stage policy blocks it on a hot
	// server before touching weights (Section 4.3: "distribute
	// requests in such a way that only memory or I/O-bound requests
	// were sent to it"). Empty disables stage one for this component.
	ShedClass string
	Thresholds
}

// Config is shared by Freon and Freon-EC.
type Config struct {
	// Kp, Kd are the PD controller gains; defaults 0.1 and 0.2.
	Kp, Kd float64
	// Period between tempd observations; default 1 minute.
	Period time.Duration
	// ConnPoll is admd's LVS statistics polling period; default 5s.
	ConnPoll time.Duration
	// TwoStage enables the content-aware policy of Section 4.3: the
	// first reaction to a hot component blocks its ShedClass on that
	// server; weights and connection caps engage only if the server
	// stays hot. Requires a content-aware balancer.
	TwoStage bool
	// Events, when non-nil, receives the policy's decision log:
	// emergency edges, PD outputs, weight/cap changes, class blocks,
	// releases, red-line shutdowns, and Freon-EC reconfigurations. On a
	// virtual clock the log is deterministic (the Figure 11 golden test
	// pins it).
	Events *telemetry.EventLog
	// Tracer, when non-nil, records causal spans: each machine's
	// thermal emergency roots a trace connecting its onset to the
	// sensor reads, PD decisions, admd actuations, and power
	// transitions it causes, through to the recovery (internal/causal).
	Tracer *causal.Tracer
}

// DefaultComponents returns Section 5's monitored components, the
// ones every policy watches on every server: the CPU at
// Th=67/Tl=64/Tr=71 °C and the disk platters at Th=65/Tl=62/Tr=69 °C.
func DefaultComponents() []ComponentSpec {
	return []ComponentSpec{
		{Node: model.NodeCPU, Util: model.UtilCPU, ShedClass: "dynamic",
			Thresholds: Thresholds{High: 67, Low: 64, RedLine: 71}},
		{Node: model.NodeDiskPlatters, Util: model.UtilDisk, ShedClass: "static",
			Thresholds: Thresholds{High: 65, Low: 62, RedLine: 69}},
	}
}

func (c Config) withDefaults() Config {
	if c.Kp == 0 {
		c.Kp = 0.1
	}
	if c.Kd == 0 {
		c.Kd = 0.2
	}
	if c.Period <= 0 {
		c.Period = time.Minute
	}
	if c.ConnPoll <= 0 {
		c.ConnPoll = 5 * time.Second
	}
	return c
}

// Ticks returns the configuration's ConnPoll and Period, defaults
// applied, as whole numbers of one-second ticks, the only cadences a
// lockstep driver can honour. The error names the field that is not
// one; callers prefix it.
func (c Config) Ticks() (poll, period int, err error) {
	c = c.withDefaults()
	if c.ConnPoll%time.Second != 0 {
		return 0, 0, fmt.Errorf("ConnPoll = %v is not a whole multiple of the 1s tick", c.ConnPoll)
	}
	if c.Period%time.Second != 0 {
		return 0, 0, fmt.Errorf("Period = %v is not a whole multiple of the 1s tick", c.Period)
	}
	return int(c.ConnPoll / time.Second), int(c.Period / time.Second), nil
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Kp < 0 || c.Kd < 0 {
		return fmt.Errorf("freon: negative controller gains kp=%v kd=%v", c.Kp, c.Kd)
	}
	return nil
}
