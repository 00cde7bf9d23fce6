package freon

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/telemetry"
)

// core is the skeleton every policy shares: one tempd per machine in
// machine order, one admd, the config's event log and tracer, and each
// machine's last report. A policy embeds it and adds only its
// reaction to the reports.
//
// Ticks and snapshots share one mutex, so the HTTP control plane may
// read StateSnapshot concurrently with a running driver.
type core struct {
	mu      sync.Mutex
	cfg     Config
	order   []string
	tempds  map[string]*Tempd
	admd    *Admd
	bal     Balancer
	power   Power
	off     map[string]bool // powered off: shut down, or drained by Freon-EC
	reports map[string]Report
	events  *telemetry.EventLog
	trace   *emTracer
}

// newCore validates and defaults cfg and builds the tempds and admd.
func newCore(machines []string, sensors Sensors, bal Balancer, power Power, cfg Config) (*core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(machines) == 0 {
		return nil, fmt.Errorf("freon: no machines")
	}
	cfg = cfg.withDefaults()
	admd, err := NewAdmd(bal, 1)
	if err != nil {
		return nil, err
	}
	if cfg.TwoStage {
		shed := map[string]string{}
		for _, comp := range cfg.Components {
			shed[comp.Node] = comp.ShedClass
		}
		admd.EnableTwoStage(shed)
	}
	admd.events = cfg.Events
	admd.tracer = cfg.Tracer
	c := &core{
		cfg:     cfg,
		tempds:  map[string]*Tempd{},
		admd:    admd,
		bal:     bal,
		power:   power,
		off:     map[string]bool{},
		reports: map[string]Report{},
		events:  cfg.Events,
		trace:   newEmTracer(cfg.Tracer),
	}
	sensors = wrapSensors(sensors, c.trace)
	for _, m := range machines {
		td, err := NewTempd(m, sensors, cfg)
		if err != nil {
			return nil, err
		}
		c.tempds[m] = td
		c.order = append(c.order, m)
	}
	return c, nil
}

// Config returns the effective configuration.
func (c *core) Config() Config { return c.cfg }

// Admd exposes the admission controller (for statistics).
func (c *core) Admd() *Admd { return c.admd }

// TickPoll samples LVS connection statistics for every powered server.
func (c *core) TickPoll() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.order {
		if c.off[m] {
			continue
		}
		if err := c.admd.PollConns(m); err != nil {
			return err
		}
	}
	return nil
}

// check runs one machine's tempd, keeps the report as the machine's
// last, and logs and traces it. Actions the report causes are traced
// under the returned context.
func (c *core) check(m string) (Report, causal.Context, error) {
	r, err := c.tempds[m].Check()
	if err != nil {
		return Report{}, causal.Context{}, err
	}
	c.reports[m] = r
	emitReport(c.events, r)
	return r, c.trace.report(r), nil
}

// sweep checks every powered machine in order: a red-lined one is shut
// down, any other is handed to react (nil: no reaction).
func (c *core) sweep(react func(causal.Context, Report) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.order {
		if c.off[m] {
			continue
		}
		r, tc, err := c.check(m)
		if err != nil {
			return err
		}
		if r.RedLine {
			err = c.shutdown(m, r)
		} else if react != nil {
			err = react(tc, r)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// emitReport logs a tempd report's edges and controller output. The
// emission order per machine — emergency edge, then PD output, then
// whatever admd decides — matches the decision order, so a virtual-
// clock run replays identically.
func emitReport(events *telemetry.EventLog, r Report) {
	if events == nil {
		return
	}
	if r.JustHot && len(r.HotNodes) > 0 {
		node := r.HotNodes[0]
		events.Emit(telemetry.EvEmergencyRaised, r.Machine, node, float64(r.Temps[node]), "")
	}
	if r.Hot {
		events.Emit(telemetry.EvPDOutput, r.Machine, "", r.Output, strings.Join(r.HotNodes, ","))
	}
	if r.JustCool {
		events.Emit(telemetry.EvEmergencyCleared, r.Machine, "", 0, "")
	}
}

// maxTemp is the hottest component of a report (0 for an empty one).
func maxTemp(r Report) float64 {
	var hottest float64
	for _, t := range r.Temps {
		if float64(t) > hottest {
			hottest = float64(t)
		}
	}
	return hottest
}

// shutdown powers a red-lined server off and excludes it from load.
func (c *core) shutdown(machine string, r Report) error {
	if err := c.bal.Quiesce(machine); err != nil {
		return err
	}
	if c.power != nil {
		if err := c.power.SetPower(machine, false); err != nil {
			return err
		}
	}
	c.off[machine] = true
	if c.events != nil {
		c.events.Emit(telemetry.EvRedLine, machine, "", maxTemp(r), "")
	}
	c.trace.action(c.trace.ctx(machine), causal.KindRedLine, machine, maxTemp(r))
	c.trace.drop(machine)
	return nil
}

// Offline reports whether a machine is powered off.
func (c *core) Offline(machine string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.off[machine]
}

// OfflineCount returns the number of powered-off machines.
func (c *core) OfflineCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, off := range c.off {
		if off {
			n++
		}
	}
	return n
}

// MachineState is one server's row in a policy snapshot.
type MachineState struct {
	Machine    string             `json:"machine"`
	Temps      map[string]float64 `json:"temps,omitempty"`
	Hot        bool               `json:"hot,omitempty"`
	Restricted bool               `json:"restricted,omitempty"`
	Weight     float64            `json:"weight"`
	Blocked    []string           `json:"blocked_classes,omitempty"`
	Offline    bool               `json:"offline,omitempty"`
	Phase      string             `json:"phase,omitempty"` // Freon-EC only
}

// ComponentThresholds is one monitored component's configured
// Low/High/RedLine lines, exposed in /state so clients (and alert
// rule files) can see what the policy reacts to.
type ComponentThresholds struct {
	Node    string  `json:"node"`
	Low     float64 `json:"low"`
	High    float64 `json:"high"`
	RedLine float64 `json:"redline"`
}

// Snapshot is a policy's /state document.
type Snapshot struct {
	Machines     []MachineState        `json:"machines"`
	Thresholds   []ComponentThresholds `json:"thresholds,omitempty"`
	OfflineCount int                   `json:"offline_count"`
	// Freon-EC extras (zero under the base policy).
	ActiveCount  int `json:"active_count,omitempty"`
	PoweredCount int `json:"powered_count,omitempty"`
	TurnOns      int `json:"turn_ons,omitempty"`
	TurnOffs     int `json:"turn_offs,omitempty"`
}

// StateSnapshot captures the policy's view of every machine; the
// control plane serves it at /state. Safe to call concurrently with
// ticks.
func (c *core) StateSnapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshot()
}

// snapshot builds the shared part of a snapshot; call under c.mu.
func (c *core) snapshot() Snapshot {
	var snap Snapshot
	for _, comp := range c.cfg.Components {
		snap.Thresholds = append(snap.Thresholds, ComponentThresholds{
			Node: comp.Node, Low: float64(comp.Low), High: float64(comp.High), RedLine: float64(comp.RedLine),
		})
	}
	for _, m := range c.order {
		ms := MachineState{Machine: m, Offline: c.off[m]}
		if r, ok := c.reports[m]; ok {
			ms.Temps = map[string]float64{}
			for node, t := range r.Temps {
				ms.Temps[node] = float64(t)
			}
			ms.Hot = r.Hot
		}
		ms.Restricted = c.tempds[m].Restricted()
		if w, err := c.bal.Weight(m); err == nil {
			ms.Weight = w
		}
		ms.Blocked = c.admd.BlockedClasses(m)
		if ms.Offline {
			snap.OfflineCount++
		}
		snap.Machines = append(snap.Machines, ms)
	}
	return snap
}

// Freon is the base thermal-emergency manager: one tempd per server
// plus the admission controller, which reacts to every report; a
// red-lined server is turned off (the action of last resort even
// under the base policy). Drive it with TickPoll every ConnPoll period
// and TickPeriod every Period; experiment harnesses call these from
// emulated time, the freon command from wall-clock tickers.
type Freon struct{ *core }

// New builds the base Freon over the given machines.
func New(machines []string, sensors Sensors, bal Balancer, power Power, cfg Config) (*Freon, error) {
	c, err := newCore(machines, sensors, bal, power, cfg)
	if err != nil {
		return nil, err
	}
	return &Freon{c}, nil
}

// TickPeriod runs one observation period: every tempd checks its
// machine and admd reacts.
func (f *Freon) TickPeriod() error { return f.sweep(f.admd.HandleReportCtx) }

// Traditional is the baseline the paper compares against: no load
// shifting at all, just "turning servers off when the temperature of
// their CPUs crossed Tr".
type Traditional struct{ *core }

// NewTraditional builds the baseline policy.
func NewTraditional(machines []string, sensors Sensors, bal Balancer, power Power, cfg Config) (*Traditional, error) {
	c, err := newCore(machines, sensors, bal, power, cfg)
	if err != nil {
		return nil, err
	}
	return &Traditional{c}, nil
}

// TickPeriod checks every powered machine and shuts down red-lined
// ones.
func (t *Traditional) TickPeriod() error { return t.sweep(nil) }

// OfflineMachines returns the shut-down machines, sorted.
func (t *Traditional) OfflineMachines() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []string
	for m, off := range t.off {
		if off {
			out = append(out, m)
		}
	}
	sort.Strings(out)
	return out
}
