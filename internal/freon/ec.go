package freon

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/telemetry"
	"github.com/darklab/mercury/internal/units"
)

// Freon-EC's energy parameters (Section 4.2).
const (
	// Uh is the add-server threshold on projected utilization.
	Uh units.Fraction = 0.70
	// Ul is the remove-server threshold on current utilization.
	Ul units.Fraction = 0.60
	// BootDelay approximates how long a server takes from power-on to
	// accepting connections ("turning on a server takes quite some
	// time").
	BootDelay = 30 * time.Second
	// MinActive is the smallest active configuration.
	MinActive = 1
)

// ECConfig extends the base configuration with Freon-EC's room layout.
type ECConfig struct {
	Config
	// Regions maps each machine to a physical region of the room;
	// "common thermal emergencies will likely affect all servers of a
	// region".
	Regions map[string]int
}

// machinePhase is a machine's place in the reconfiguration lifecycle.
type machinePhase int

const (
	phaseActive machinePhase = iota
	phaseBooting
	phaseDraining
	phaseOff
	// phaseRedLined is a server shut down at its red line. Like the
	// base policy's shutdown it is final: a turn-on never picks it.
	phaseRedLined
)

func (p machinePhase) String() string {
	switch p {
	case phaseActive:
		return "active"
	case phaseBooting:
		return "booting"
	case phaseDraining:
		return "draining"
	case phaseRedLined:
		return "red-lined"
	default:
		return "off"
	}
}

// EC is Freon-EC: the base thermal policy combined with region-aware
// cluster reconfiguration (the pseudo-code of Figure 10). It "falls
// back to the base Freon policy when all servers are needed".
type EC struct {
	*core
	cfg   ECConfig
	utils Utils

	phase       map[string]machinePhase
	bootLeft    map[string]int
	emergencies map[int]int
	regions     []int
	rr          int

	histPrev map[model.UtilSource]float64
	histCur  map[model.UtilSource]float64
	histSeen int

	turnOns, turnOffs int
}

// NewEC builds Freon-EC. All machines start active.
func NewEC(machines []string, sensors Sensors, utils Utils, bal Balancer, power Power, cfg ECConfig) (*EC, error) {
	c, err := newCore(machines, sensors, bal, power, cfg.Config)
	if err != nil {
		return nil, err
	}
	cfg.Config = c.cfg
	if power == nil {
		return nil, fmt.Errorf("freon: Freon-EC requires power control")
	}
	if utils == nil {
		return nil, fmt.Errorf("freon: Freon-EC requires utilization feeds")
	}
	e := &EC{
		core:        c,
		cfg:         cfg,
		utils:       utils,
		phase:       map[string]machinePhase{},
		bootLeft:    map[string]int{},
		emergencies: map[int]int{},
		histPrev:    map[model.UtilSource]float64{},
		histCur:     map[model.UtilSource]float64{},
	}
	regionSet := map[int]bool{}
	for _, m := range machines {
		if _, ok := cfg.Regions[m]; !ok {
			return nil, fmt.Errorf("freon: machine %q has no region", m)
		}
		e.phase[m] = phaseActive
		regionSet[cfg.Regions[m]] = true
	}
	for r := range regionSet {
		e.regions = append(e.regions, r)
	}
	sort.Ints(e.regions)
	return e, nil
}

// setPhase moves a machine through its lifecycle; an off machine is
// off for the shared skeleton too, which neither polls nor checks it.
func (e *EC) setPhase(m string, p machinePhase) {
	e.phase[m] = p
	e.off[m] = p == phaseOff || p == phaseRedLined
}

// ActiveCount returns the machines currently serving (active phase).
func (e *EC) ActiveCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.count(phaseActive)
}

// count returns the machines in phase p.
func (e *EC) count(p machinePhase) int {
	n := 0
	for _, m := range e.order {
		if e.phase[m] == p {
			n++
		}
	}
	return n
}

// Phase returns a machine's lifecycle phase as a string (for logs and
// experiment output).
func (e *EC) Phase(machine string) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.phase[machine].String()
}

// TurnOns and TurnOffs count reconfigurations.
func (e *EC) TurnOns() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.turnOns
}

func (e *EC) TurnOffs() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.turnOffs
}

// bootTicks converts the boot delay to observation periods.
func (e *EC) bootTicks() int {
	t := int(math.Ceil(float64(BootDelay) / float64(e.cfg.Period)))
	if t < 1 {
		t = 1
	}
	return t
}

// TickPeriod runs one observation period of Figure 10.
func (e *EC) TickPeriod() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.advanceLifecycles()
	e.observeUtilization()

	// Gather reports from every powered machine. A red-lined one is
	// shut down, whatever its phase, and leaves the configuration.
	ctxs := map[string]causal.Context{}
	for _, m := range e.order {
		if e.off[m] {
			continue
		}
		r, tc, err := e.check(m)
		if err != nil {
			return err
		}
		if r.RedLine {
			if err := e.shutdown(m, r); err != nil {
				return err
			}
			e.setPhase(m, phaseRedLined)
			continue
		}
		ctxs[m] = tc
	}

	// "if (need to add a server) and (at least one server is off)".
	if e.needAdd() && e.count(phaseOff) > 0 {
		if err := e.turnOnOne(causal.Context{}); err != nil {
			return err
		}
	}

	// Every machine still active was active, so checked, above.
	for _, m := range e.order {
		if e.phase[m] != phaseActive {
			continue
		}
		r, region := e.reports[m], e.cfg.Regions[m]
		if r.JustHot {
			e.emergencies[region]++
			if e.count(phaseOff) > 0 || e.canRemove(1) {
				if !e.canRemove(1) {
					// "if (cannot remove a server) turn on a server".
					// The replacement's power-on belongs to the
					// emergency that forced it.
					if err := e.turnOnOne(ctxs[m]); err != nil {
						return err
					}
				}
				// "turn off the hot server".
				if err := e.beginDrain(m, ctxs[m]); err != nil {
					return err
				}
				continue
			}
			// "all servers in the cluster need to be active": manage
			// in place with the base policy.
		} else if r.JustCool {
			e.emergencies[region] = max(e.emergencies[region]-1, 0)
		}
		if err := e.admd.HandleReportCtx(ctxs[m], r); err != nil {
			return err
		}
	}

	// "if (can still remove servers) turn off as many servers as
	// possible in increasing order of current processing capacity."
	return e.shrink()
}

// advanceLifecycles finishes boots and drains.
func (e *EC) advanceLifecycles() {
	for _, m := range e.order {
		switch e.phase[m] {
		case phaseBooting:
			e.bootLeft[m]--
			if e.bootLeft[m] <= 0 {
				e.setPhase(m, phaseActive)
				_ = e.admd.Release(m) // nominal weight, no cap
				_ = e.bal.Resume(m)
			}
		case phaseDraining:
			if n, err := e.bal.ActiveConns(m); err == nil && n == 0 {
				_ = e.power.SetPower(m, false)
				e.setPhase(m, phaseOff)
				if e.events != nil {
					e.events.Emit(telemetry.EvPowerOff, m, "", 0, "drain-complete")
				}
				// Close the machine's trace: a later boot starts fresh.
				e.trace.action(e.trace.ctx(m), causal.KindPowerOff, m, 0)
				e.trace.drop(m)
			}
		}
	}
}

// observeUtilization updates the cluster-average utilization history
// over active machines; Freon-EC "projects utilizations two
// observation intervals into the future, assuming that load will
// increase linearly until then".
func (e *EC) observeUtilization() {
	sums := map[model.UtilSource]float64{}
	n := 0
	for _, m := range e.order {
		if e.phase[m] != phaseActive {
			continue
		}
		n++
		for _, comp := range DefaultComponents() {
			if u, err := e.utils.Utilization(m, comp.Util); err == nil {
				sums[comp.Util] += float64(u)
			}
		}
	}
	for src := range e.histCur {
		e.histPrev[src] = e.histCur[src]
	}
	for src, sum := range sums {
		if n > 0 {
			e.histCur[src] = sum / float64(n)
		}
	}
	e.histSeen++
}

// projected returns the two-interval linear projection for a source.
func (e *EC) projected(src model.UtilSource) float64 {
	cur := e.histCur[src]
	prev := e.histPrev[src]
	if e.histSeen < 2 {
		return cur
	}
	proj := cur + 2*(cur-prev)
	if proj < 0 {
		return 0
	}
	return proj
}

// needAdd reports whether any component's projected utilization
// exceeds Uh.
func (e *EC) needAdd() bool {
	for _, comp := range DefaultComponents() {
		if e.projected(comp.Util) > float64(Uh) {
			return true
		}
	}
	return false
}

// canRemove reports whether k servers could leave the active
// configuration with the average utilization of every component still
// below Ul.
func (e *EC) canRemove(k int) bool {
	active := e.count(phaseActive)
	if active-k < MinActive {
		return false
	}
	for _, comp := range DefaultComponents() {
		scaled := e.histCur[comp.Util] * float64(active) / float64(active-k)
		if scaled >= float64(Ul) {
			return false
		}
	}
	return true
}

// turnOnOne selects a region round-robin — requiring an off server,
// preferring regions without emergencies — and boots one server there.
// A non-zero tc ties the power-on to the emergency that triggered it.
func (e *EC) turnOnOne(tc causal.Context) error {
	pick := func(requireCalm bool) string {
		for i := 0; i < len(e.regions); i++ {
			region := e.regions[(e.rr+i)%len(e.regions)]
			if requireCalm && e.emergencies[region] > 0 {
				continue
			}
			for _, m := range e.order {
				if e.cfg.Regions[m] == region && e.phase[m] == phaseOff {
					e.rr = (e.rr + i + 1) % len(e.regions)
					return m
				}
			}
		}
		return ""
	}
	m := pick(true)
	if m == "" {
		m = pick(false)
	}
	if m == "" {
		return nil // nothing off anywhere
	}
	if err := e.power.SetPower(m, true); err != nil {
		return err
	}
	e.setPhase(m, phaseBooting)
	e.bootLeft[m] = e.bootTicks()
	e.turnOns++
	if e.events != nil {
		e.events.Emit(telemetry.EvPowerOn, m, "", float64(e.cfg.Regions[m]), "")
	}
	e.trace.action(tc, causal.KindPowerOn, m, float64(e.cfg.Regions[m]))
	return nil
}

// beginDrain quiesces a server and lets its connections finish before
// power-off ("waiting for its current connections to terminate, and
// then shutting it down").
func (e *EC) beginDrain(machine string, tc causal.Context) error {
	if err := e.bal.Quiesce(machine); err != nil {
		return err
	}
	e.setPhase(machine, phaseDraining)
	e.turnOffs++
	if e.events != nil {
		e.events.Emit(telemetry.EvDrain, machine, "", 0, "")
	}
	e.trace.action(tc, causal.KindDrain, machine, 0)
	return nil
}

// shrink turns off as many servers as possible while the remaining
// average utilization stays below Ul, in increasing order of current
// processing capacity (weight), hottest first among equals — hampered
// servers leave the configuration first.
func (e *EC) shrink() error {
	for e.canRemove(1) {
		type cand struct {
			name   string
			weight float64
			temp   float64
		}
		var cands []cand
		for _, m := range e.order {
			if e.phase[m] != phaseActive {
				continue
			}
			w, err := e.bal.Weight(m)
			if err != nil {
				return err
			}
			cands = append(cands, cand{name: m, weight: w, temp: maxTemp(e.reports[m])})
		}
		if len(cands) <= MinActive {
			return nil
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].weight != cands[j].weight {
				return cands[i].weight < cands[j].weight
			}
			if cands[i].temp != cands[j].temp {
				return cands[i].temp > cands[j].temp
			}
			return cands[i].name < cands[j].name
		})
		if err := e.beginDrain(cands[0].name, e.trace.ctx(cands[0].name)); err != nil {
			return err
		}
	}
	return nil
}

// StateSnapshot captures Freon-EC's view of every machine for the
// control plane: the shared rows plus each machine's phase and the
// configuration counts. Safe to call concurrently with ticks.
func (e *EC) StateSnapshot() Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	snap := e.snapshot()
	snap.ActiveCount, snap.TurnOns, snap.TurnOffs = e.count(phaseActive), e.turnOns, e.turnOffs
	snap.PoweredCount = len(snap.Machines) - snap.OfflineCount
	for i := range snap.Machines {
		snap.Machines[i].Phase = e.phase[snap.Machines[i].Machine].String()
	}
	return snap
}
