// Package alert is Mercury's deterministic thermal alerting and SLO
// engine. An Engine compiles a declarative rule set once, then
// evaluates it in lockstep with the solver tick: every EvalTick(n) is
// stamped at exactly n×step of virtual time, so the same rules over
// the same run produce a bitwise-identical alert timeline — live,
// sharded, or replayed from a flight-recorder capture.
//
// The rule kinds cover the reactive-to-predictive spectrum the paper's
// Freon only begins: threshold-for-duration and redline-proximity
// rules mirror Freon's own thresholds, predicted-redline rules answer
// "when will this node cross its red line?" (via the surrogate's
// transient map when one is attached, linear extrapolation otherwise),
// model-health watches the surrogate's residual drift, health rules
// watch the daemons themselves (missed ticks, boundary misses, record
// drops), and burn-rate rules implement Prometheus-style multi-window
// error-budget alerts over time-above-redline and detect-to-actuate
// SLOs.
//
// Evaluation is allocation-free (BenchmarkAlertEval pins 0 allocs/op)
// and a nil *Engine is a valid disabled engine: every method is
// nil-receiver safe.
package alert

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Rule is one declarative alert rule. The zero values of most knobs
// resolve to sensible defaults at compile time; thermal rules with no
// explicit value derive their thresholds from each probe's configured
// freon.Thresholds (Low/High/RedLine), so a rule file rarely needs to
// hardcode a temperature.
type Rule struct {
	// Name labels the rule; it is carried as the Detail of every
	// transition event and as the rule label of the metrics.
	Name string `json:"name"`
	// Kind selects the evaluator: "threshold", "proximity",
	// "predicted-redline", "model-health", "health", or "burn-rate".
	Kind string `json:"kind"`
	// Machine and Node restrict probe-scoped kinds to one machine
	// and/or node ("" matches all probes with thresholds).
	Machine string `json:"machine,omitempty"`
	Node    string `json:"node,omitempty"`
	// Value is the kind's main number: the temperature for
	// "threshold" (default: the probe's High), the residual tolerance
	// for "model-health" (default: the surrogate's own tolerance), and
	// the burn-rate factor for "burn-rate" (default 1).
	Value float64 `json:"value,omitempty"`
	// Margin is the "proximity" setback below the red line (default 1).
	Margin float64 `json:"margin,omitempty"`
	// ForS is the pending duration in seconds: the condition must hold
	// this long before the alert fires, and must clear this long before
	// it resolves. 0 fires and resolves immediately.
	ForS float64 `json:"for_s,omitempty"`
	// HorizonS is the "predicted-redline" lookahead in seconds
	// (default 300): fire when the predicted ETA is within it.
	HorizonS float64 `json:"horizon_s,omitempty"`
	// WindowS is the "predicted-redline" extrapolation window in ticks
	// of history (default 60).
	WindowS float64 `json:"window_s,omitempty"`
	// Counter selects the "health" counter: "missed-ticks",
	// "boundary-missed", or "record-drops".
	Counter string `json:"counter,omitempty"`
	// HoldS keeps a "health" alert asserted this many seconds after the
	// last counter increase (default 60).
	HoldS float64 `json:"hold_s,omitempty"`
	// Objective selects the "burn-rate" SLO: "time-above-redline"
	// (per-machine and room-wide) or "detect-to-actuate".
	Objective string `json:"objective,omitempty"`
	// Budget is the SLO's allowed bad fraction (default 0.001 for
	// time-above-redline, 0.1 for detect-to-actuate).
	Budget float64 `json:"budget,omitempty"`
	// TargetS is the detect-to-actuate latency objective in seconds
	// (default 5).
	TargetS float64 `json:"target_s,omitempty"`
	// ShortS and LongS are the two burn windows in seconds (defaults
	// 300 and 3600). The alert fires only while both windows burn
	// faster than Value× budget.
	ShortS float64 `json:"short_s,omitempty"`
	LongS  float64 `json:"long_s,omitempty"`
}

// Rule kinds.
const (
	kindThreshold = iota
	kindProximity
	kindPredicted
	kindModelHealth
	kindHealth
	kindBurnRate
)

// Health counter selectors.
const (
	counterMissedTicks = iota
	counterBoundaryMissed
	counterRecordDrops
)

// Burn-rate objectives.
const (
	objTimeAboveRedline = iota
	objDetectToActuate
)

// Defaults returns the built-in rule set, derived at compile time from
// each probe's freon.Thresholds: fire on sustained High, on red-line
// proximity, on a predicted red-line crossing well before the reactive
// edge, on surrogate drift, on daemon-health counters, and on SLO
// burn. This is what `-alerts default` loads.
func Defaults() []Rule {
	return []Rule{
		{Name: "high-temp", Kind: "threshold", ForS: 10},
		{Name: "redline-proximity", Kind: "proximity", Margin: 1},
		{Name: "predicted-redline", Kind: "predicted-redline", ForS: 5, HorizonS: 300, WindowS: 60},
		{Name: "model-drift", Kind: "model-health", ForS: 60},
		{Name: "missed-ticks", Kind: "health", Counter: "missed-ticks"},
		{Name: "boundary-missed", Kind: "health", Counter: "boundary-missed"},
		{Name: "record-drops", Kind: "health", Counter: "record-drops"},
		{Name: "redline-budget", Kind: "burn-rate", Objective: "time-above-redline",
			Budget: 0.001, Value: 14.4, ShortS: 300, LongS: 3600},
		{Name: "slow-reaction", Kind: "burn-rate", Objective: "detect-to-actuate",
			Budget: 0.1, TargetS: 5, Value: 1, ShortS: 300, LongS: 3600},
	}
}

// ParseRules decodes a JSON rule file: an array of Rule objects.
// Unknown fields and trailing data are errors — a typoed knob must not
// silently disable a rule.
func ParseRules(data []byte) ([]Rule, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rules []Rule
	if err := dec.Decode(&rules); err != nil {
		return nil, fmt.Errorf("alert: parsing rules: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("alert: trailing data after rule array")
	}
	// JSON null decodes to nil rules, which every caller reads as
	// "alerting off" or "the defaults" — never what a rule file means.
	if rules == nil {
		return nil, fmt.Errorf("alert: rule file holds null, want an array of rules")
	}
	return rules, nil
}

// LoadRules resolves the -alerts flag value: "" means disabled (nil,
// nil), "default"/"defaults" the built-in set, anything else a JSON
// rule file path.
func LoadRules(flagValue string) ([]Rule, error) {
	switch flagValue {
	case "":
		return nil, nil
	case "default", "defaults":
		return Defaults(), nil
	}
	data, err := os.ReadFile(flagValue)
	if err != nil {
		return nil, fmt.Errorf("alert: %w", err)
	}
	return ParseRules(data)
}

func secs(s float64, def time.Duration) time.Duration {
	if s <= 0 {
		return def
	}
	return time.Duration(s * float64(time.Second))
}
