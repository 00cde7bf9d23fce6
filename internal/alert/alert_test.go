package alert

import (
	"testing"
	"time"

	"github.com/darklab/mercury/internal/telemetry"
)

func testProbes() []Probe {
	return []Probe{
		{Machine: "m1", Node: "cpu", Low: 64, High: 67, RedLine: 71},
		{Machine: "m1", Node: "cpu-air"}, // no thresholds: no thermal rules
		{Machine: "m2", Node: "cpu", Low: 64, High: 67, RedLine: 71},
	}
}

// harness drives an engine with scripted temperatures.
type harness struct {
	temps []float64
	eng   *Engine
}

func newHarness(t *testing.T, rules []Rule) *harness {
	t.Helper()
	h := &harness{temps: []float64{40, 40, 40}}
	eng, err := New(Config{
		Rules:  rules,
		Step:   time.Second,
		Probes: testProbes(),
		Fill:   func(dst []float64) int { return copy(dst, h.temps) },
	})
	if err != nil {
		t.Fatal(err)
	}
	h.eng = eng
	return h
}

func transitions(e *Engine) []string {
	var out []string
	for _, ev := range e.Timeline() {
		out = append(out, ev.String())
	}
	return out
}

func TestThresholdForDuration(t *testing.T) {
	h := newHarness(t, []Rule{{Name: "hot", Kind: "threshold", ForS: 3}})
	tick := uint64(0)
	step := func(temp float64, n int) {
		h.temps[0] = temp
		for i := 0; i < n; i++ {
			tick++
			h.eng.EvalTick(tick)
		}
	}
	step(66, 5) // below High: nothing
	if got := len(h.eng.Timeline()); got != 0 {
		t.Fatalf("%d transitions below threshold, want 0: %v", got, transitions(h.eng))
	}
	step(68, 1) // crosses: pending
	s := h.eng.State()
	if s.Pending != 1 || s.Firing != 0 {
		t.Fatalf("after crossing: %+v", s)
	}
	step(68, 3) // held 3s: firing
	s = h.eng.State()
	if s.Firing != 1 {
		t.Fatalf("after hold: %+v, transitions %v", s, transitions(h.eng))
	}
	if s.Alerts[0].Machine != "m1" || s.Alerts[0].Node != "cpu" || s.Alerts[0].Rule != "hot" {
		t.Errorf("firing alert mislabeled: %+v", s.Alerts[0])
	}
	step(60, 1) // drops: still firing (resolve needs For of clear)
	if s = h.eng.State(); s.Firing != 1 {
		t.Fatalf("resolved too eagerly: %+v", s)
	}
	step(60, 3)
	if s = h.eng.State(); s.Firing != 0 || s.Pending != 0 {
		t.Fatalf("did not resolve: %+v", s)
	}
	got := transitions(h.eng)
	want := []string{
		"t=6s alert-pending machine=m1 node=cpu value=68 detail=hot",
		"t=9s alert-firing machine=m1 node=cpu value=68 detail=hot",
		"t=13s alert-resolved machine=m1 node=cpu value=60 detail=hot",
	}
	if len(got) != len(want) {
		t.Fatalf("transitions: got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("transition %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

func TestPendingCancelsSilently(t *testing.T) {
	h := newHarness(t, []Rule{{Name: "hot", Kind: "threshold", ForS: 10}})
	h.temps[0] = 68
	h.eng.EvalTick(1)
	h.temps[0] = 60
	h.eng.EvalTick(2)
	if s := h.eng.State(); s.Pending != 0 || s.Firing != 0 {
		t.Fatalf("pending did not cancel: %+v", s)
	}
	if got := transitions(h.eng); len(got) != 1 {
		t.Fatalf("want only the dangling alert-pending, got %v", got)
	}
}

func TestPredictedRedlineExtrapolation(t *testing.T) {
	h := newHarness(t, []Rule{{Name: "pred", Kind: "predicted-redline",
		ForS: 2, HorizonS: 120, WindowS: 10}})
	// Rise 0.05 C/tick from 63: crosses Low=64 at tick 20, and from
	// there ETA = (71-T)/0.05 = 140..s shrinking; fires once ETA<=120
	// held 2 ticks.
	for n := uint64(1); n <= 200; n++ {
		h.temps[0] = 63 + 0.05*float64(n)
		h.temps[2] = 63 // m2 stays flat: must not alert
		h.eng.EvalTick(n)
	}
	var firing *telemetry.Event
	for _, ev := range h.eng.Timeline() {
		if ev.Type == telemetry.EvAlertFiring {
			ev := ev
			firing = &ev
			break
		}
	}
	if firing == nil {
		t.Fatalf("predicted-redline never fired: %v", transitions(h.eng))
	}
	if firing.Machine != "m1" {
		t.Errorf("fired for %q, want m1", firing.Machine)
	}
	// Value is the predicted ETA in seconds; it must be within horizon
	// and the alert must fire well before the temp reaches RedLine.
	if firing.Value <= 0 || firing.Value > 120 {
		t.Errorf("ETA = %v, want (0,120]", firing.Value)
	}
	tempAtFire := 63 + 0.05*firing.At.Seconds()
	if tempAtFire >= 71 {
		t.Errorf("fired at %.2fC — not before the red line", tempAtFire)
	}
	for _, ev := range h.eng.Timeline() {
		if ev.Machine == "m2" {
			t.Errorf("flat machine alerted: %v", ev)
		}
	}
}

func TestPredictedRedlineSurrogateETA(t *testing.T) {
	var asked int
	h := &harness{temps: []float64{66, 40, 40}}
	eng, err := New(Config{
		Rules:  []Rule{{Name: "pred", Kind: "predicted-redline", HorizonS: 120, WindowS: 10}},
		Step:   time.Second,
		Probes: testProbes(),
		Fill:   func(dst []float64) int { return copy(dst, h.temps) },
		ETA: func(machine, node string, threshold float64, horizon time.Duration) (time.Duration, bool) {
			asked++
			if machine == "m1" {
				return 90 * time.Second, true
			}
			return -1, true // m2: model says no crossing
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.eng = eng
	h.temps[2] = 66 // both warm; only m1's surrogate ETA is within horizon
	eng.EvalTick(1)
	if asked == 0 {
		t.Fatal("surrogate ETA was never consulted")
	}
	s := eng.State()
	if s.Firing != 1 || s.Alerts[0].Machine != "m1" || s.Alerts[0].Value != 90 {
		t.Fatalf("surrogate-backed alert state: %+v", s)
	}
}

func TestBurnRateTimeAboveRedline(t *testing.T) {
	h := newHarness(t, []Rule{{Name: "budget", Kind: "burn-rate",
		Objective: "time-above-redline", Budget: 0.01, Value: 2, ShortS: 10, LongS: 100}})
	// 50 clean ticks, then redline: short window saturates quickly.
	for n := uint64(1); n <= 50; n++ {
		h.eng.EvalTick(n)
	}
	if s := h.eng.State(); s.Firing != 0 {
		t.Fatalf("fired with no bad time: %+v", s)
	}
	h.temps[0] = 72
	for n := uint64(51); n <= 60; n++ {
		h.eng.EvalTick(n)
	}
	s := h.eng.State()
	if s.Firing == 0 {
		t.Fatalf("burn-rate never fired: %+v, %v", s, transitions(h.eng))
	}
	// Both the m1 instance and the room instance must burn.
	var m1, room bool
	for _, a := range s.Alerts {
		if a.State != "firing" {
			continue
		}
		switch a.Machine {
		case "m1":
			m1 = true
		case "":
			room = true
		}
	}
	if !m1 || !room {
		t.Errorf("m1 firing=%v room firing=%v, want both: %+v", m1, room, s.Alerts)
	}
}

func TestDetectToActuateSLO(t *testing.T) {
	events := telemetry.NewEventLog(64, nil)
	h := &harness{temps: []float64{40, 40, 40}}
	eng, err := New(Config{
		Rules: []Rule{{Name: "slow", Kind: "burn-rate", Objective: "detect-to-actuate",
			Budget: 0.5, TargetS: 2, Value: 1, ShortS: 10, LongS: 20}},
		Step:   time.Second,
		Probes: testProbes(),
		Fill:   func(dst []float64) int { return copy(dst, h.temps) },
		Events: events,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A 5s detect-to-actuate latency violates the 2s target; with a
	// 0.5 budget, one violating observation out of one burns at 2x.
	events.EmitAt(10*time.Second, telemetry.EvEmergencyRaised, "m1", "cpu", 68, "")
	events.EmitAt(15*time.Second, telemetry.EvWeightChange, "m1", "", 30, "")
	eng.EvalTick(16)
	s := eng.State()
	if s.Firing != 1 {
		t.Fatalf("latency SLO did not fire: %+v, %v", s, transitions(eng))
	}
	if s.Alerts[0].Rule != "slow" {
		t.Errorf("wrong rule fired: %+v", s.Alerts[0])
	}
}

func TestHealthRule(t *testing.T) {
	var missed uint64
	h := &harness{temps: []float64{40, 40, 40}}
	eng, err := New(Config{
		Rules:  []Rule{{Name: "ticks", Kind: "health", Counter: "missed-ticks", HoldS: 5}},
		Step:   time.Second,
		Probes: testProbes(),
		Fill:   func(dst []float64) int { return copy(dst, h.temps) },
		Health: func() (uint64, uint64, uint64) { return missed, 0, 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	missed = 7 // preexisting before the engine started: must not alert
	eng.EvalTick(1)
	if s := eng.State(); s.Firing != 0 {
		t.Fatalf("alerted on preexisting counter value: %+v", s)
	}
	missed = 9
	eng.EvalTick(2)
	if s := eng.State(); s.Firing != 1 {
		t.Fatalf("health rule did not fire on increase: %+v", s)
	}
	for n := uint64(3); n <= 10; n++ {
		eng.EvalTick(n)
	}
	if s := eng.State(); s.Firing != 0 {
		t.Fatalf("health rule did not resolve after hold: %+v", s)
	}
}

func TestRuleValidation(t *testing.T) {
	bad := []Config{
		{Rules: []Rule{{Name: "x", Kind: "nope"}}},
		{Rules: []Rule{{Kind: "threshold"}}},
		{Rules: []Rule{{Name: "x", Kind: "health", Counter: "bogus"}}},
		{Rules: []Rule{{Name: "x", Kind: "burn-rate", Objective: "bogus"}}},
		{Rules: []Rule{{Name: "x", Kind: "threshold", Machine: "ghost"}}, Probes: testProbes()},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestParseRules(t *testing.T) {
	rules, err := ParseRules([]byte(`[{"name":"hot","kind":"threshold","for_s":10}]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 || rules[0].Name != "hot" {
		t.Fatalf("parsed %+v", rules)
	}
	if _, err := ParseRules([]byte(`[{"name":"hot","kind":"threshold","bogus":1}]`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseRules([]byte(`[] garbage`)); err == nil {
		t.Error("trailing data accepted")
	}
	// null would decode to nil rules: "off" to one caller, "defaults"
	// to another.
	if _, err := ParseRules([]byte(`null`)); err == nil {
		t.Error("null rule file accepted")
	}
	if got, err := ParseRules([]byte(`[]`)); err != nil || got == nil {
		t.Errorf("ParseRules([]) = %v, %v; want empty non-nil rules", got, err)
	}
	if got, err := LoadRules(""); err != nil || got != nil {
		t.Errorf("LoadRules(\"\") = %v, %v", got, err)
	}
	if got, err := LoadRules("default"); err != nil || len(got) == 0 {
		t.Errorf("LoadRules(default) = %v, %v", got, err)
	}
}

func TestNilEngine(t *testing.T) {
	var e *Engine
	e.EvalTick(1) // must not panic
	if e.Transitions() != nil || e.Timeline() != nil {
		t.Error("nil engine leaked state")
	}
	if s := e.State(); s.Rules != 0 {
		t.Errorf("nil engine state: %+v", s)
	}
}

// TestDeterministic evaluates the same scripted run twice and requires
// bitwise-identical timelines — the property the fig11 golden leans on.
func TestDeterministic(t *testing.T) {
	run := func() []telemetry.Event {
		h := &harness{temps: []float64{40, 40, 40}}
		eng, err := New(Config{
			Step:   time.Second,
			Probes: testProbes(),
			Fill:   func(dst []float64) int { return copy(dst, h.temps) },
		})
		if err != nil {
			t.Fatal(err)
		}
		for n := uint64(1); n <= 600; n++ {
			h.temps[0] = 40 + 0.06*float64(n)
			h.temps[2] = 40 + 0.03*float64(n)
			eng.EvalTick(n)
		}
		return eng.Timeline()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("scripted run produced no transitions")
	}
	if len(a) != len(b) {
		t.Fatalf("timeline lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("transition %d differs:\n  %s\n  %s", i, a[i], b[i])
		}
	}
}

// TestEvalDoesNotAllocate pins the tick path at zero allocations with
// the full default rule set, metrics, and a shared event log attached.
func TestEvalDoesNotAllocate(t *testing.T) {
	h := &harness{temps: []float64{66, 40, 66}}
	eng, err := New(Config{
		Step:     time.Second,
		Probes:   testProbes(),
		Fill:     func(dst []float64) int { return copy(dst, h.temps) },
		Health:   func() (uint64, uint64, uint64) { return 0, 0, 0 },
		Events:   telemetry.NewEventLog(64, nil),
		Registry: telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	tick := uint64(0)
	for ; tick < 100; tick++ {
		eng.EvalTick(tick) // settle rings and any lazy state
	}
	avg := testing.AllocsPerRun(1000, func() {
		tick++
		eng.EvalTick(tick)
	})
	if avg != 0 {
		t.Errorf("EvalTick allocates %v times/op, want 0", avg)
	}
}
