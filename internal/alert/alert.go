package alert

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/telemetry"
)

// Probe is one (machine, node) temperature column, in the exact order
// Config.Fill writes temperatures (solver.Probes order). Low/High/
// RedLine are the node's effective freon.Thresholds; a probe with a
// zero RedLine (an air node, say) carries no thermal rules.
type Probe struct {
	Machine string  `json:"machine"`
	Node    string  `json:"node"`
	Low     float64 `json:"low,omitempty"`
	High    float64 `json:"high,omitempty"`
	RedLine float64 `json:"redline,omitempty"`
}

func (p *Probe) hasThresholds() bool { return p.RedLine > 0 }

// Config wires an Engine to its data sources. Every func field is
// optional: a nil Fill leaves thermal rules inert, a nil Health the
// health rules, and so on — the engine is built from whatever the
// embedding daemon can feed it.
type Config struct {
	// Rules is the declarative rule set (nil means Defaults()).
	Rules []Rule
	// Step is the solver tick; EvalTick(n) evaluates at virtual time
	// n×Step. Defaults to 1s.
	Step time.Duration
	// Probes lists the temperature columns Fill produces, in order.
	Probes []Probe
	// Fill copies current node temperatures into dst in Probes order
	// (solver.(*Solver).ReadAllTemps). It must not allocate.
	Fill func(dst []float64) int
	// Health reads the daemon's health counters.
	Health func() (missedTicks, boundaryMissed, recordDrops uint64)
	// Residual reads the surrogate's current fit residual and its
	// configured tolerance; ok=false while no fit exists.
	Residual func() (resid, tol float64, ok bool)
	// ETA answers the predictive question for one probe via the
	// surrogate's transient map (surrogate.(*Model).TimeToThreshold):
	// ok=false falls back to linear extrapolation over recent history,
	// and a negative duration means "no crossing within horizon".
	ETA func(machine, node string, threshold float64, horizon time.Duration) (time.Duration, bool)
	// Events is the daemon's shared thermal event log. Transitions are
	// emitted into it (alongside the engine's own transitions log), and
	// it feeds the detect-to-actuate SLO: emergency-raised →
	// first-actuation latencies are observed from the event stream.
	Events *telemetry.EventLog
	// Registry receives the mercury_alerts gauge family and
	// mercury_alert_transitions_total counters when set.
	Registry *telemetry.Registry
	// Clock stamps the transitions log's epoch (nil = real clock).
	Clock clock.Clock
}

// transitionsCap bounds the transitions ring.
const transitionsCap = 1024

// State is one alert instance's position in the pending→firing→
// resolved state machine.
type State uint8

const (
	StateInactive State = iota
	StatePending
	StateFiring
)

func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateFiring:
		return "firing"
	default:
		return "inactive"
	}
}

// compiledRule is one Rule resolved against the probe set, with its
// metrics instruments bound.
type compiledRule struct {
	spec    Rule
	kind    int
	forD    time.Duration
	horizon time.Duration
	window  int // predicted-redline history ticks
	counter int // health selector
	holdD   time.Duration
	obj     int // burn-rate objective
	budget  float64
	factor  float64
	target  time.Duration
	shortN  int // burn windows, in ticks
	longN   int

	gPending, gFiring            *telemetry.Gauge
	cPending, cFiring, cResolved *telemetry.Counter
	nPending, nFiring            int // live instance counts (under mu)
}

// instance is one (rule, scope) alert with its ring-buffered state.
type instance struct {
	rule    int
	probe   int    // probe index, -1 for machine/room scopes
	machine string // event labels ("" = room scope)
	node    string

	state      State
	since      time.Duration // condition-true streak start
	clearSince time.Duration // condition-false streak start (-1 = none)
	value      float64

	// predicted-redline: ring of the last window temperatures.
	hist    []float64
	histPos int
	histN   int

	// health: last counter reading and the time it last grew.
	counterInit  bool
	lastCounter  uint64
	lastIncrease time.Duration

	// burn-rate: per-tick bad (and, for latency, observation) counts
	// over the long window, with sliding sums for both windows.
	ring     []uint8
	obsRing  []uint8
	ringPos  int
	ringN    int
	shortBad int
	longBad  int
	shortObs int
	longObs  int
}

// Engine evaluates a compiled rule set in lockstep with the solver
// tick. All exported methods are safe for concurrent use and safe on a
// nil receiver (a nil engine is "alerting disabled").
type Engine struct {
	step       time.Duration
	probes     []Probe
	machines   []string
	machineIdx map[string]int

	fill     func([]float64) int
	health   func() (uint64, uint64, uint64)
	residual func() (float64, float64, bool)
	eta      func(string, string, float64, time.Duration) (time.Duration, bool)

	events      *telemetry.EventLog
	transitions *telemetry.EventLog
	scanFn      func(telemetry.Event)

	mu         sync.Mutex
	rules      []compiledRule
	insts      []instance
	temps      []float64
	machineBad []bool
	raisedAt   []time.Duration // per machine; -1 = no open emergency
	lastSeq    uint64
	latTarget  time.Duration
	latObs     int
	latBad     int
	evals      uint64
}

// New compiles cfg into an Engine. Rule validation errors (unknown
// kind, counter, or objective; a machine scope matching no probe) are
// reported here, never at tick time.
func New(cfg Config) (*Engine, error) {
	if cfg.Step <= 0 {
		cfg.Step = time.Second
	}
	rules := cfg.Rules
	if rules == nil {
		rules = Defaults()
	}
	e := &Engine{
		step:       cfg.Step,
		probes:     cfg.Probes,
		machineIdx: map[string]int{},
		fill:       cfg.Fill,
		health:     cfg.Health,
		residual:   cfg.Residual,
		eta:        cfg.ETA,
		events:     cfg.Events,
		temps:      make([]float64, len(cfg.Probes)),
	}
	e.transitions = telemetry.NewEventLog(transitionsCap, cfg.Clock)
	for i := range cfg.Probes {
		m := cfg.Probes[i].Machine
		if _, ok := e.machineIdx[m]; !ok {
			e.machineIdx[m] = len(e.machines)
			e.machines = append(e.machines, m)
		}
	}
	e.machineBad = make([]bool, len(e.machines))
	e.raisedAt = make([]time.Duration, len(e.machines))
	for i := range e.raisedAt {
		e.raisedAt[i] = -1
	}
	e.scanFn = e.observe

	for ri, r := range rules {
		if r.Name == "" {
			return nil, fmt.Errorf("alert: rule %d has no name", ri)
		}
		cr := compiledRule{
			spec: r,
			forD: secs(r.ForS, 0),
		}
		probeScoped := false
		switch r.Kind {
		case "threshold":
			cr.kind = kindThreshold
			probeScoped = true
		case "proximity":
			cr.kind = kindProximity
			probeScoped = true
			if cr.spec.Margin == 0 {
				cr.spec.Margin = 1
			}
		case "predicted-redline":
			cr.kind = kindPredicted
			probeScoped = true
			cr.horizon = secs(r.HorizonS, 300*time.Second)
			cr.window = int(secs(r.WindowS, 60*time.Second) / e.step)
			if cr.window < 2 {
				cr.window = 2
			}
		case "model-health":
			cr.kind = kindModelHealth
		case "health":
			cr.kind = kindHealth
			cr.holdD = secs(r.HoldS, 60*time.Second)
			switch r.Counter {
			case "missed-ticks":
				cr.counter = counterMissedTicks
			case "boundary-missed":
				cr.counter = counterBoundaryMissed
			case "record-drops":
				cr.counter = counterRecordDrops
			default:
				return nil, fmt.Errorf("alert: rule %q: unknown health counter %q", r.Name, r.Counter)
			}
		case "burn-rate":
			cr.kind = kindBurnRate
			cr.budget = r.Budget
			cr.factor = r.Value
			if cr.factor <= 0 {
				cr.factor = 1
			}
			cr.shortN = int(secs(r.ShortS, 300*time.Second) / e.step)
			cr.longN = int(secs(r.LongS, 3600*time.Second) / e.step)
			if cr.shortN < 1 {
				cr.shortN = 1
			}
			if cr.longN < cr.shortN {
				cr.longN = cr.shortN
			}
			switch r.Objective {
			case "time-above-redline":
				cr.obj = objTimeAboveRedline
				if cr.budget <= 0 {
					cr.budget = 0.001
				}
			case "detect-to-actuate":
				cr.obj = objDetectToActuate
				if cr.budget <= 0 {
					cr.budget = 0.1
				}
				cr.target = secs(r.TargetS, 5*time.Second)
				e.latTarget = cr.target
			default:
				return nil, fmt.Errorf("alert: rule %q: unknown burn-rate objective %q", r.Name, r.Objective)
			}
		default:
			return nil, fmt.Errorf("alert: rule %q: unknown kind %q", r.Name, r.Kind)
		}

		if cfg.Registry != nil {
			cr.gPending = cfg.Registry.Gauge(
				fmt.Sprintf("mercury_alerts{rule=%q,state=\"pending\"}", r.Name),
				"Alert instances currently pending, by rule.")
			cr.gFiring = cfg.Registry.Gauge(
				fmt.Sprintf("mercury_alerts{rule=%q,state=\"firing\"}", r.Name),
				"Alert instances currently firing, by rule.")
			cr.cPending = cfg.Registry.Counter(
				fmt.Sprintf("mercury_alert_transitions_total{rule=%q,to=\"pending\"}", r.Name),
				"Alert state-machine transitions, by rule and target state.")
			cr.cFiring = cfg.Registry.Counter(
				fmt.Sprintf("mercury_alert_transitions_total{rule=%q,to=\"firing\"}", r.Name),
				"Alert state-machine transitions, by rule and target state.")
			cr.cResolved = cfg.Registry.Counter(
				fmt.Sprintf("mercury_alert_transitions_total{rule=%q,to=\"resolved\"}", r.Name),
				"Alert state-machine transitions, by rule and target state.")
		}

		ruleIdx := len(e.rules)
		e.rules = append(e.rules, cr)

		switch {
		case probeScoped:
			matched := false
			for pi := range e.probes {
				p := &e.probes[pi]
				if !p.hasThresholds() {
					continue
				}
				if r.Machine != "" && r.Machine != p.Machine {
					continue
				}
				if r.Node != "" && r.Node != p.Node {
					continue
				}
				matched = true
				inst := instance{
					rule: ruleIdx, probe: pi,
					machine: p.Machine, node: p.Node,
					clearSince: -1, lastIncrease: -1,
				}
				if cr.kind == kindPredicted {
					inst.hist = make([]float64, cr.window)
				}
				e.insts = append(e.insts, inst)
			}
			if !matched && (r.Machine != "" || r.Node != "") {
				return nil, fmt.Errorf("alert: rule %q matches no probe (machine=%q node=%q)", r.Name, r.Machine, r.Node)
			}
		case cr.kind == kindBurnRate && cr.obj == objTimeAboveRedline:
			// One instance per machine plus a room-wide aggregate.
			for _, m := range e.machines {
				if r.Machine != "" && r.Machine != m {
					continue
				}
				e.insts = append(e.insts, instance{
					rule: ruleIdx, probe: -1, machine: m,
					clearSince: -1, lastIncrease: -1,
					ring: make([]uint8, cr.longN),
				})
			}
			if r.Machine == "" {
				e.insts = append(e.insts, instance{
					rule: ruleIdx, probe: -1,
					clearSince: -1, lastIncrease: -1,
					ring: make([]uint8, cr.longN),
				})
			}
		case cr.kind == kindBurnRate && cr.obj == objDetectToActuate:
			e.insts = append(e.insts, instance{
				rule: ruleIdx, probe: -1,
				clearSince: -1, lastIncrease: -1,
				ring:    make([]uint8, cr.longN),
				obsRing: make([]uint8, cr.longN),
			})
		default: // model-health, health: one engine-wide instance
			e.insts = append(e.insts, instance{
				rule: ruleIdx, probe: -1,
				clearSince: -1, lastIncrease: -1,
			})
		}
	}
	return e, nil
}

// Transitions returns the engine's transitions log — the /alerts SSE
// stream and the ALT flight-recorder channel hang here. Nil when the
// engine is nil.
func (e *Engine) Transitions() *telemetry.EventLog {
	if e == nil {
		return nil
	}
	return e.transitions
}

// Probes returns the watched temperature columns with their effective
// thresholds — daemons expose these in /state so clients can see the
// Low/High/RedLine lines alerting is derived from. Nil when the
// engine is nil.
func (e *Engine) Probes() []Probe {
	if e == nil {
		return nil
	}
	return e.probes
}

// observe consumes one shared-log event for the detect-to-actuate SLO:
// the latency from a machine's emergency-raised edge to its first
// actuation. Called under the event log's lock from ScanSince (the
// engine's own mutex is already held by EvalTick).
func (e *Engine) observe(ev telemetry.Event) {
	mi, ok := e.machineIdx[ev.Machine]
	if !ok {
		return
	}
	switch ev.Type {
	case telemetry.EvEmergencyRaised:
		if e.raisedAt[mi] < 0 {
			e.raisedAt[mi] = ev.At
		}
	case telemetry.EvWeightChange, telemetry.EvConnCap, telemetry.EvClassBlocked,
		telemetry.EvPowerOn, telemetry.EvDrain:
		if e.raisedAt[mi] >= 0 {
			lat := ev.At - e.raisedAt[mi]
			e.raisedAt[mi] = -1
			e.latObs++
			if e.latTarget > 0 && lat > e.latTarget {
				e.latBad++
			}
		}
	case telemetry.EvEmergencyCleared, telemetry.EvRelease, telemetry.EvRedLine:
		e.raisedAt[mi] = -1
	}
}

// EvalTick evaluates every rule at solver tick n (virtual time
// n×step). It performs no allocation: rules were compiled at New and
// all per-instance state lives in preallocated rings.
func (e *Engine) EvalTick(n uint64) {
	if e == nil {
		return
	}
	at := time.Duration(n) * e.step
	e.mu.Lock()
	defer e.mu.Unlock()

	if e.fill != nil && len(e.temps) > 0 {
		e.fill(e.temps)
	}
	for i := range e.machineBad {
		e.machineBad[i] = false
	}
	for pi := range e.probes {
		p := &e.probes[pi]
		if p.RedLine > 0 && e.temps[pi] >= p.RedLine {
			e.machineBad[e.machineIdx[p.Machine]] = true
		}
	}
	if e.events != nil {
		e.lastSeq = e.events.ScanSince(e.lastSeq, e.scanFn)
	}
	var cMissed, cBoundary, cDrops uint64
	if e.health != nil {
		cMissed, cBoundary, cDrops = e.health()
	}
	var resid, rtol float64
	var rok bool
	if e.residual != nil {
		resid, rtol, rok = e.residual()
	}

	for ri := range e.rules {
		e.rules[ri].nPending = 0
		e.rules[ri].nFiring = 0
	}

	for ii := range e.insts {
		inst := &e.insts[ii]
		r := &e.rules[inst.rule]
		var cond bool
		var value float64

		switch r.kind {
		case kindThreshold:
			p := &e.probes[inst.probe]
			thr := r.spec.Value
			if thr == 0 {
				thr = p.High
			}
			value = e.temps[inst.probe]
			cond = value >= thr

		case kindProximity:
			p := &e.probes[inst.probe]
			value = e.temps[inst.probe]
			cond = value >= p.RedLine-r.spec.Margin

		case kindPredicted:
			p := &e.probes[inst.probe]
			T := e.temps[inst.probe]
			inst.hist[inst.histPos] = T
			inst.histPos++
			if inst.histPos == len(inst.hist) {
				inst.histPos = 0
			}
			if inst.histN < len(inst.hist) {
				inst.histN++
			}
			if T >= p.Low {
				answered := false
				if e.eta != nil {
					if d, ok := e.eta(p.Machine, p.Node, p.RedLine, r.horizon); ok {
						answered = true
						if d >= 0 && d <= r.horizon {
							cond = true
							value = d.Seconds()
						}
					}
				}
				if !answered && inst.histN == len(inst.hist) {
					// Linear extrapolation over the history window:
					// after the push, histPos indexes the oldest sample.
					oldest := inst.hist[inst.histPos]
					span := float64(len(inst.hist)-1) * e.step.Seconds()
					slope := (T - oldest) / span
					if slope > 1e-9 {
						eta := (p.RedLine - T) / slope
						if eta >= 0 && eta <= r.horizon.Seconds() {
							cond = true
							value = eta
						}
					}
				}
			}

		case kindModelHealth:
			tol := r.spec.Value
			if tol == 0 {
				tol = rtol
			}
			value = resid
			cond = rok && tol > 0 && resid > tol

		case kindHealth:
			var c uint64
			switch r.counter {
			case counterMissedTicks:
				c = cMissed
			case counterBoundaryMissed:
				c = cBoundary
			case counterRecordDrops:
				c = cDrops
			}
			if !inst.counterInit {
				// First evaluation: adopt the current reading without
				// alerting on history that predates the engine.
				inst.counterInit = true
				inst.lastCounter = c
			} else if c != inst.lastCounter {
				inst.lastCounter = c
				inst.lastIncrease = at
			}
			value = float64(c)
			cond = inst.lastIncrease >= 0 && at-inst.lastIncrease <= r.holdD

		case kindBurnRate:
			var bad, obs uint8
			if r.obj == objTimeAboveRedline {
				obs = 1
				if inst.machine == "" {
					for _, b := range e.machineBad {
						if b {
							bad = 1
							break
						}
					}
				} else if e.machineBad[e.machineIdx[inst.machine]] {
					bad = 1
				}
			} else {
				if e.latObs > 255 {
					e.latObs = 255
				}
				if e.latBad > 255 {
					e.latBad = 255
				}
				obs = uint8(e.latObs)
				bad = uint8(e.latBad)
				e.latObs, e.latBad = 0, 0
			}
			// Slide both windows over the shared long ring.
			if inst.ringN == len(inst.ring) {
				inst.longBad -= int(inst.ring[inst.ringPos])
				if inst.obsRing != nil {
					inst.longObs -= int(inst.obsRing[inst.ringPos])
				}
			}
			if inst.ringN >= r.shortN {
				idx := inst.ringPos - r.shortN
				if idx < 0 {
					idx += len(inst.ring)
				}
				inst.shortBad -= int(inst.ring[idx])
				if inst.obsRing != nil {
					inst.shortObs -= int(inst.obsRing[idx])
				}
			}
			inst.ring[inst.ringPos] = bad
			inst.longBad += int(bad)
			inst.shortBad += int(bad)
			if inst.obsRing != nil {
				inst.obsRing[inst.ringPos] = obs
				inst.longObs += int(obs)
				inst.shortObs += int(obs)
			}
			inst.ringPos++
			if inst.ringPos == len(inst.ring) {
				inst.ringPos = 0
			}
			if inst.ringN < len(inst.ring) {
				inst.ringN++
			}
			shortEff, longEff := inst.ringN, inst.ringN
			if shortEff > r.shortN {
				shortEff = r.shortN
			}
			if r.obj == objDetectToActuate {
				shortEff, longEff = inst.shortObs, inst.longObs
			}
			if shortEff > 0 && longEff > 0 {
				burnShort := float64(inst.shortBad) / float64(shortEff) / r.budget
				burnLong := float64(inst.longBad) / float64(longEff) / r.budget
				value = burnShort
				cond = burnShort >= r.factor && burnLong >= r.factor
			}
		}

		e.apply(inst, r, cond, value, at)
		switch inst.state {
		case StatePending:
			r.nPending++
		case StateFiring:
			r.nFiring++
		}
	}

	for ri := range e.rules {
		r := &e.rules[ri]
		if r.gPending != nil {
			r.gPending.Set(float64(r.nPending))
			r.gFiring.Set(float64(r.nFiring))
		}
	}
	e.evals++
}

// apply advances one instance's state machine and emits transitions.
func (e *Engine) apply(inst *instance, r *compiledRule, cond bool, value float64, at time.Duration) {
	inst.value = value
	switch inst.state {
	case StateInactive:
		if !cond {
			return
		}
		inst.since = at
		inst.clearSince = -1
		if r.forD == 0 {
			inst.state = StateFiring
			e.emit(r, inst, telemetry.EvAlertFiring, at, value)
		} else {
			inst.state = StatePending
			e.emit(r, inst, telemetry.EvAlertPending, at, value)
		}
	case StatePending:
		if !cond {
			// A pending alert that never fired cancels silently, as in
			// Prometheus; the dangling alert-pending event records the
			// near miss.
			inst.state = StateInactive
			return
		}
		if at-inst.since >= r.forD {
			inst.state = StateFiring
			e.emit(r, inst, telemetry.EvAlertFiring, at, value)
		}
	case StateFiring:
		if cond {
			inst.clearSince = -1
			return
		}
		if inst.clearSince < 0 {
			inst.clearSince = at
		}
		if at-inst.clearSince >= r.forD {
			inst.state = StateInactive
			inst.clearSince = -1
			e.emit(r, inst, telemetry.EvAlertResolved, at, value)
		}
	}
}

func (e *Engine) emit(r *compiledRule, inst *instance, typ telemetry.EventType, at time.Duration, value float64) {
	e.transitions.EmitAt(at, typ, inst.machine, inst.node, value, r.spec.Name)
	if e.events != nil {
		e.events.EmitAt(at, typ, inst.machine, inst.node, value, r.spec.Name)
	}
	switch typ {
	case telemetry.EvAlertPending:
		if r.cPending != nil {
			r.cPending.Inc()
		}
	case telemetry.EvAlertFiring:
		if r.cFiring != nil {
			r.cFiring.Inc()
		}
	case telemetry.EvAlertResolved:
		if r.cResolved != nil {
			r.cResolved.Inc()
		}
	}
}

// AlertState is one non-inactive alert instance in a Snapshot.
type AlertState struct {
	Rule    string  `json:"rule"`
	Kind    string  `json:"kind"`
	Machine string  `json:"machine,omitempty"`
	Node    string  `json:"node,omitempty"`
	State   string  `json:"state"`
	SinceS  float64 `json:"since_s"`
	Value   float64 `json:"value,omitempty"`
}

// Snapshot is the /alerts JSON document.
type Snapshot struct {
	Rules       int          `json:"rules"`
	Instances   int          `json:"instances"`
	Evals       uint64       `json:"evals"`
	Transitions uint64       `json:"transitions"`
	Pending     int          `json:"pending"`
	Firing      int          `json:"firing"`
	Alerts      []AlertState `json:"alerts,omitempty"`
}

// State snapshots the engine: every pending or firing alert, sorted by
// rule then machine then node. Safe to call from the control plane
// while the tick loop evaluates.
func (e *Engine) State() Snapshot {
	if e == nil {
		return Snapshot{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	s := Snapshot{
		Rules:       len(e.rules),
		Instances:   len(e.insts),
		Evals:       e.evals,
		Transitions: e.transitions.Seq(),
	}
	for ii := range e.insts {
		inst := &e.insts[ii]
		if inst.state == StateInactive {
			continue
		}
		if inst.state == StatePending {
			s.Pending++
		} else {
			s.Firing++
		}
		s.Alerts = append(s.Alerts, AlertState{
			Rule:    e.rules[inst.rule].spec.Name,
			Kind:    e.rules[inst.rule].spec.Kind,
			Machine: inst.machine,
			Node:    inst.node,
			State:   inst.state.String(),
			SinceS:  inst.since.Seconds(),
			Value:   inst.value,
		})
	}
	sort.Slice(s.Alerts, func(i, j int) bool {
		a, b := s.Alerts[i], s.Alerts[j]
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		return a.Node < b.Node
	})
	return s
}

// Timeline returns every retained transition, oldest first — the
// deterministic alert timeline the golden tests pin.
func (e *Engine) Timeline() []telemetry.Event {
	if e == nil {
		return nil
	}
	return e.transitions.Since(0)
}
