// Package daemon is the one observability bootstrap shared by every
// Mercury process that can be watched: mercury-solver, monitord, freon
// and the online lockstep harness. It declares the six shared flags
// once and builds, by one rule, the stack they ask for — event log,
// metrics registry, causal tracer, flight recorder, alert engine and
// HTTP control plane — so a wiring bug cannot exist in one daemon only.
package daemon

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/darklab/mercury/internal/alert"
	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/ctl"
	"github.com/darklab/mercury/internal/freon"
	"github.com/darklab/mercury/internal/recordlog"
	"github.com/darklab/mercury/internal/surrogate"
	"github.com/darklab/mercury/internal/telemetry"
)

// ErrUsage marks an Open failure caused by the flag values themselves
// (a conflicting pair, an unreadable rule file); mains exit 2 on it.
var ErrUsage = errors.New("usage")

// Flags are the observability flags every daemon takes; see the
// "Shared flags" table in docs/observability.md.
type Flags struct {
	Ctl            string
	Pprof          bool
	TraceSpans     bool
	Record         string
	RecordMaxBytes int64
	Alerts         string
}

// Register declares the shared flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Ctl, "ctl", "", "HTTP control-plane address, e.g. 127.0.0.1:9367 (/healthz /metrics /state /events /alerts /spans; see docs/observability.md)")
	fs.BoolVar(&f.Pprof, "pprof", false, "serve net/http/pprof under /debug/pprof/ on the -ctl address")
	fs.BoolVar(&f.TraceSpans, "trace-spans", false, "record causal spans and serve them at /spans on the -ctl address")
	fs.StringVar(&f.Record, "record", "", "flight-recorder directory: capture this process's events, spans, alert transitions and (solver daemons) inputs and temperatures to <dir>/<node>.mrl for mercury-replay (see docs/recordlog.md)")
	fs.Int64Var(&f.RecordMaxBytes, "record-max-bytes", 0, "rotate the flight-recorder file into numbered segments once one exceeds this many bytes (0 = one unbounded file)")
	fs.StringVar(&f.Alerts, "alerts", "", "alert rules: \"default\" for the built-in set, or a JSON rule file; served at /alerts on the -ctl address (see docs/observability.md)")
}

// Config is Flags plus what the embedding process alone knows.
type Config struct {
	Flags
	// Node names the process in its capture: <Record>/<Node>.mrl.
	Node string
	// Clock stamps every feed; nil means the real clock.
	Clock clock.Clock
	// Rules, when non-nil, is an already-resolved rule set used in
	// place of loading Flags.Alerts.
	Rules []alert.Rule
	// EventCap and SpanCap size the event and span rings (0 = the
	// packages' defaults).
	EventCap, SpanCap int
}

// Stack is what Open built. A nil field is a feed nobody asked for;
// Events and Clock are never nil.
type Stack struct {
	Clock    clock.Clock
	Registry *telemetry.Registry
	Events   *telemetry.EventLog
	Tracer   *causal.Tracer
	Recorder *recordlog.Writer
	// Rules is the resolved rule set (nil = alerting off); Alerts is
	// the engine Watch compiled from it.
	Rules  []alert.Rule
	Alerts *alert.Engine

	flags Flags
	ctl   *ctl.Server
}

// Open builds the stack the flags ask for: the event log always; the
// registry with -ctl or -record (solverd hangs its per-probe
// temperature table, which the recorder captures, on it); the tracer
// with -trace-spans; the recorder with -record, created last so it is
// the sink of every feed that exists. Open before the first advance of
// a virtual clock, so every epoch is virtual t=0.
func Open(cfg Config) (*Stack, error) {
	if cfg.Pprof && cfg.Ctl == "" {
		return nil, fmt.Errorf("%w: -pprof requires -ctl", ErrUsage)
	}
	rules := cfg.Rules
	if rules == nil {
		var err error
		if rules, err = alert.LoadRules(cfg.Alerts); err != nil {
			return nil, fmt.Errorf("%w: -alerts: %w", ErrUsage, err)
		}
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	s := &Stack{
		Clock:  clk,
		Events: telemetry.NewEventLog(cfg.EventCap, clk),
		Rules:  rules,
		flags:  cfg.Flags,
	}
	if cfg.Ctl != "" || cfg.Record != "" {
		s.Registry = telemetry.NewRegistry()
	}
	if cfg.TraceSpans {
		s.Tracer = causal.NewTracer(cfg.SpanCap, clk)
	}
	if cfg.Record != "" {
		if err := os.MkdirAll(cfg.Record, 0o755); err != nil {
			return nil, fmt.Errorf("record dir: %w", err)
		}
		rec, err := recordlog.Create(filepath.Join(cfg.Record, cfg.Node+".mrl"), cfg.Node, clk,
			recordlog.WithMaxBytes(cfg.RecordMaxBytes))
		if err != nil {
			return nil, fmt.Errorf("record: %w", err)
		}
		s.Recorder = rec
		s.Events.SetSink(rec.RecordEvent)
		s.Tracer.SetSink(rec.RecordSpan)
	}
	return s, nil
}

// Watch describes what one process can feed the alert engine.
type Watch struct {
	// Step is the evaluation tick; EvalTick(n) runs at n×Step.
	Step time.Duration
	// Probes and Fill are the temperature columns (ThermalProbes over
	// solver.Probes, and ReadAllTemps); nil leaves thermal rules inert.
	Probes []alert.Probe
	Fill   func(dst []float64) int
	// Health reads the process's missed-tick and missed-boundary
	// counters; the stack adds the recorder's drops.
	Health func() (missedTicks, boundaryMissed uint64)
	// Surrogate, when fitted alongside, feeds the model-health and
	// predicted-redline rules.
	Surrogate *surrogate.Model
}

// Watch compiles the stack's rules into Alerts, wired to every feed
// the stack holds. Without rules it does nothing: a nil engine is a
// no-op on every call.
func (s *Stack) Watch(w Watch) error {
	if s.Rules == nil {
		return nil
	}
	cfg := alert.Config{
		Rules:  s.Rules,
		Step:   w.Step,
		Probes: w.Probes,
		Fill:   w.Fill,
		Health: func() (missed, boundary, drops uint64) {
			if w.Health != nil {
				missed, boundary = w.Health()
			}
			if s.Recorder != nil {
				drops = s.Recorder.Drops()
			}
			return missed, boundary, drops
		},
		Events:   s.Events,
		Registry: s.Registry,
		Clock:    s.Clock,
	}
	if m := w.Surrogate; m != nil {
		cfg.Residual = func() (float64, float64, bool) {
			st := m.Stats()
			return st.MaxResidualC, m.ResidualTolerance(), st.FitGeneration > 0
		}
		cfg.ETA = m.TimeToThreshold
	}
	eng, err := alert.New(cfg)
	if err != nil {
		return fmt.Errorf("alerts: %w", err)
	}
	if s.Recorder != nil {
		eng.Transitions().SetSink(s.Recorder.RecordAlert)
	}
	s.Alerts = eng
	return nil
}

// ThermalProbes resolves temperature columns (parallel machine and
// node slices, solver.Probes order) against freon.DefaultComponents:
// a node Freon monitors carries its Low/High/RedLine, any other node
// carries no thermal rules.
func ThermalProbes(machines, nodes []string) []alert.Probe {
	thr := map[string]freon.Thresholds{}
	for _, c := range freon.DefaultComponents() {
		thr[c.Node] = c.Thresholds
	}
	probes := make([]alert.Probe, len(machines))
	for i := range machines {
		t := thr[nodes[i]]
		probes[i] = alert.Probe{
			Machine: machines[i], Node: nodes[i],
			Low: float64(t.Low), High: float64(t.High), RedLine: float64(t.RedLine),
		}
	}
	return probes
}

// Serve starts the control plane on the -ctl address over whatever the
// stack holds, plus the process's own endpoints (extra: /state,
// /fiddle, /whatif), and returns the bound address; "" without -ctl.
// Call it after Watch so /alerts is served.
func (s *Stack) Serve(extra ...ctl.Option) (string, error) {
	if s.flags.Ctl == "" {
		return "", nil
	}
	opts := []ctl.Option{ctl.WithRegistry(s.Registry), ctl.WithEvents(s.Events)}
	if s.Tracer != nil {
		opts = append(opts, ctl.WithTracer(s.Tracer))
	}
	if eng := s.Alerts; eng != nil {
		opts = append(opts, ctl.WithAlerts(func() any { return eng.State() }, eng.Transitions()))
	}
	if s.flags.Pprof {
		opts = append(opts, ctl.WithPprof())
	}
	cs := ctl.New(append(opts, extra...)...)
	bound, err := cs.Start(s.flags.Ctl)
	if err != nil {
		return "", err
	}
	s.ctl = cs
	return bound, nil
}

// Close stops the control plane and flushes the recorder, reporting
// the capture's path and how many records a full ring dropped ("" and
// 0 without -record). Stop every emitter first. Close is idempotent.
func (s *Stack) Close() (path string, drops uint64, err error) {
	if s.ctl != nil {
		s.ctl.Close()
		s.ctl = nil
	}
	if s.Recorder == nil {
		return "", 0, nil
	}
	err = s.Recorder.Close()
	return s.Recorder.Path(), s.Recorder.Drops(), err
}

// CloseAndReport is Close for a main: it tells the operator where the
// capture went and whether the recorder lost anything.
func (s *Stack) CloseAndReport(prog string) {
	path, drops, err := s.Close()
	if path == "" {
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: flight recorder: %v\n", prog, err)
	}
	if drops > 0 {
		fmt.Fprintf(os.Stderr, "%s: flight recorder dropped %d records (disk slower than the tick loop)\n", prog, drops)
	}
	fmt.Printf("%s: recorded to %s\n", prog, path)
}
