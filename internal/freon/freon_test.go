package freon

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/darklab/mercury/internal/lvs"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

// fakeEnv is a controllable cluster environment for policy tests.
type fakeEnv struct {
	temps map[string]map[string]units.Celsius
	utils map[string]map[model.UtilSource]units.Fraction
	power map[string]bool
}

func newFakeEnv(machines ...string) *fakeEnv {
	e := &fakeEnv{
		temps: map[string]map[string]units.Celsius{},
		utils: map[string]map[model.UtilSource]units.Fraction{},
		power: map[string]bool{},
	}
	for _, m := range machines {
		e.temps[m] = map[string]units.Celsius{model.NodeCPU: 40, model.NodeDiskPlatters: 35}
		e.utils[m] = map[model.UtilSource]units.Fraction{model.UtilCPU: 0.3, model.UtilDisk: 0.1}
		e.power[m] = true
	}
	return e
}

func (e *fakeEnv) Temperature(machine, node string) (units.Celsius, error) {
	return e.temps[machine][node], nil
}

func (e *fakeEnv) Utilization(machine string, src model.UtilSource) (units.Fraction, error) {
	return e.utils[machine][src], nil
}

func (e *fakeEnv) SetPower(machine string, on bool) error {
	e.power[machine] = on
	return nil
}

func TestPDOutput(t *testing.T) {
	// Paper gains: kp=0.1, kd=0.2.
	// 2 degrees over Th, rising 1 degree per period: 0.1*2 + 0.2*1 = 0.4.
	if got := PDOutput(0.1, 0.2, 69, 68, 67); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("output = %v, want 0.4", got)
	}
	// Falling fast enough to go negative: clamped at 0.
	if got := PDOutput(0.1, 0.2, 67.5, 70, 67); got != 0 {
		t.Errorf("output = %v, want 0", got)
	}
}

func TestPDOutputNonNegativeProperty(t *testing.T) {
	f := func(curr, last float64) bool {
		if math.IsNaN(curr) || math.IsNaN(last) || math.IsInf(curr, 0) || math.IsInf(last, 0) {
			return true
		}
		return PDOutput(0.1, 0.2, units.Celsius(curr), units.Celsius(last), 67) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestThresholdsValidate(t *testing.T) {
	if err := (Thresholds{High: 67, Low: 64, RedLine: 71}).Validate(); err != nil {
		t.Errorf("valid thresholds rejected: %v", err)
	}
	for _, th := range []Thresholds{
		{High: 64, Low: 67, RedLine: 71},
		{High: 67, Low: 64, RedLine: 67},
		{High: 67, Low: 67, RedLine: 71},
	} {
		if err := th.Validate(); err == nil {
			t.Errorf("%+v: want error", th)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Kp != 0.1 || cfg.Kd != 0.2 {
		t.Errorf("gains = %v/%v", cfg.Kp, cfg.Kd)
	}
	if cfg.Period.Seconds() != 60 || cfg.ConnPoll.Seconds() != 5 {
		t.Errorf("periods = %v/%v", cfg.Period, cfg.ConnPoll)
	}
	if len(cfg.Components) != 2 {
		t.Errorf("components = %d", len(cfg.Components))
	}
	if err := (Config{Kp: -1}).Validate(); err == nil {
		t.Error("negative kp: want error")
	}
}

func TestTempdStateMachine(t *testing.T) {
	env := newFakeEnv("m1")
	td, err := NewTempd("m1", env, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Cool: nothing.
	r, err := td.Check()
	if err != nil {
		t.Fatal(err)
	}
	if r.Hot || r.JustHot || r.RedLine || td.Restricted() {
		t.Errorf("cool report = %+v", r)
	}
	if !r.AllBelowLow || r.JustCool {
		t.Errorf("cool report = %+v", r)
	}

	// Cross Th on the CPU.
	env.temps["m1"][model.NodeCPU] = 68
	r, _ = td.Check()
	if !r.Hot || !r.JustHot {
		t.Errorf("hot report = %+v", r)
	}
	// kp*(68-67) + kd*(68-40) = 0.1 + 5.6.
	if math.Abs(r.Output-5.7) > 1e-9 {
		t.Errorf("output = %v, want 5.7", r.Output)
	}
	if !td.Restricted() {
		t.Error("not restricted after hot")
	}

	// Still hot next period: Hot but not JustHot.
	env.temps["m1"][model.NodeCPU] = 68.5
	r, _ = td.Check()
	if !r.Hot || r.JustHot {
		t.Errorf("second hot report = %+v", r)
	}

	// Drop between Tl and Th: no action, still restricted.
	env.temps["m1"][model.NodeCPU] = 65
	r, _ = td.Check()
	if r.Hot || r.AllBelowLow || r.JustCool {
		t.Errorf("hysteresis report = %+v", r)
	}
	if !td.Restricted() {
		t.Error("restriction dropped in the hysteresis band")
	}

	// Below Tl on all components: JustCool exactly once.
	env.temps["m1"][model.NodeCPU] = 60
	r, _ = td.Check()
	if !r.AllBelowLow || !r.JustCool {
		t.Errorf("cool-down report = %+v", r)
	}
	if td.Restricted() {
		t.Error("still restricted after cooling")
	}
	r, _ = td.Check()
	if r.JustCool {
		t.Error("JustCool repeated")
	}
}

func TestTempdRedLine(t *testing.T) {
	env := newFakeEnv("m1")
	td, _ := NewTempd("m1", env, Config{})
	env.temps["m1"][model.NodeDiskPlatters] = 69 // disk red-line
	r, _ := td.Check()
	if !r.RedLine {
		t.Errorf("report = %+v, want red-line", r)
	}
}

func TestAdmdWeightMath(t *testing.T) {
	bal := lvs.New()
	for _, m := range []string{"m1", "m2", "m3", "m4"} {
		bal.AddServer(m, 1)
	}
	a, err := NewAdmd(bal, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Feed some connection samples so the cap has a basis.
	for i := 0; i < 3; i++ {
		bal.Assign() // load m-something; counts don't matter much
		for _, m := range []string{"m1", "m2", "m3", "m4"} {
			a.PollConns(m)
		}
	}
	// Hot report with output 1: m1's share should halve from 1/4 to 1/8.
	if err := a.HandleReport(Report{Machine: "m1", Hot: true, Output: 1}); err != nil {
		t.Fatal(err)
	}
	w, _ := bal.Weight("m1")
	total := bal.TotalWeight()
	share := w / total
	if math.Abs(share-0.125) > 1e-9 {
		t.Errorf("share = %v, want 0.125", share)
	}
	if !a.Limited("m1") {
		t.Error("no restriction recorded")
	}
	if lim, _ := bal.ConnLimit("m1"); lim < 1 {
		t.Errorf("conn limit = %d, want >= 1", lim)
	}
	if a.Adjustments("m1") != 1 {
		t.Errorf("adjustments = %d", a.Adjustments("m1"))
	}

	// Cool report restores nominal weight and removes the cap.
	if err := a.HandleReport(Report{Machine: "m1", AllBelowLow: true, JustCool: true}); err != nil {
		t.Fatal(err)
	}
	w, _ = bal.Weight("m1")
	if w != 1 {
		t.Errorf("restored weight = %v", w)
	}
	if lim, _ := bal.ConnLimit("m1"); lim != 0 {
		t.Errorf("restored limit = %d", lim)
	}
	if a.Limited("m1") {
		t.Error("restriction flag not cleared")
	}
}

func TestAdmdRepeatedAdjustments(t *testing.T) {
	bal := lvs.New()
	bal.AddServer("m1", 1)
	bal.AddServer("m2", 1)
	a, _ := NewAdmd(bal, 1)
	a.PollConns("m1")
	a.HandleReport(Report{Machine: "m1", Hot: true, Output: 1})
	w1, _ := bal.Weight("m1")
	a.HandleReport(Report{Machine: "m1", Hot: true, Output: 1})
	w2, _ := bal.Weight("m1")
	if w2 >= w1 {
		t.Errorf("repeated hot reports should keep shrinking the weight: %v -> %v", w1, w2)
	}
}

func TestAdmdZeroOutputKeepsWeight(t *testing.T) {
	bal := lvs.New()
	bal.AddServer("m1", 1)
	bal.AddServer("m2", 1)
	a, _ := NewAdmd(bal, 1)
	a.PollConns("m1")
	// Output 0: share/(0+1) = share; weight must not change.
	a.HandleReport(Report{Machine: "m1", Hot: true, Output: 0})
	w, _ := bal.Weight("m1")
	if math.Abs(w-1) > 1e-9 {
		t.Errorf("weight = %v, want unchanged 1", w)
	}
}

func TestNewAdmdValidation(t *testing.T) {
	if _, err := NewAdmd(lvs.New(), 0); err == nil {
		t.Error("zero nominal: want error")
	}
}

func TestFreonShutsDownAtRedLine(t *testing.T) {
	env := newFakeEnv("m1", "m2")
	bal := lvs.New()
	bal.AddServer("m1", 1)
	bal.AddServer("m2", 1)
	f, err := New([]string{"m1", "m2"}, env, bal, env, Config{})
	if err != nil {
		t.Fatal(err)
	}
	env.temps["m1"][model.NodeCPU] = 72
	if err := f.TickPeriod(); err != nil {
		t.Fatal(err)
	}
	if !f.Offline("m1") || f.OfflineCount() != 1 {
		t.Error("red-lined server not shut down")
	}
	if env.power["m1"] {
		t.Error("power not cut")
	}
	if q, _ := bal.Quiesced("m1"); !q {
		t.Error("not quiesced")
	}
	// m2 unaffected.
	if f.Offline("m2") {
		t.Error("m2 wrongly offline")
	}
}

func TestFreonAdjustsHotServer(t *testing.T) {
	env := newFakeEnv("m1", "m2", "m3", "m4")
	bal := lvs.New()
	for _, m := range []string{"m1", "m2", "m3", "m4"} {
		bal.AddServer(m, 1)
	}
	f, err := New([]string{"m1", "m2", "m3", "m4"}, env, bal, env, Config{})
	if err != nil {
		t.Fatal(err)
	}
	f.TickPoll()
	env.temps["m1"][model.NodeCPU] = 68
	if err := f.TickPeriod(); err != nil {
		t.Fatal(err)
	}
	w, _ := bal.Weight("m1")
	if w >= 1 {
		t.Errorf("hot server weight = %v, want reduced", w)
	}
	if snap := f.StateSnapshot(); len(snap.Machines) != 4 || !snap.Machines[0].Hot {
		t.Errorf("snapshot = %+v, want 4 machines with m1 hot", snap.Machines)
	}

	// Cooling below Tl restores the weight.
	env.temps["m1"][model.NodeCPU] = 60
	f.TickPeriod()
	w, _ = bal.Weight("m1")
	if w != 1 {
		t.Errorf("restored weight = %v", w)
	}
}

func TestFreonValidation(t *testing.T) {
	env := newFakeEnv("m1")
	bal := lvs.New()
	if _, err := New(nil, env, bal, env, Config{}); err == nil {
		t.Error("no machines: want error")
	}
	if _, err := New([]string{"m1"}, env, bal, env, Config{Kp: -1}); err == nil {
		t.Error("bad config: want error")
	}
}

func TestTraditionalPolicy(t *testing.T) {
	env := newFakeEnv("m1", "m2")
	bal := lvs.New()
	bal.AddServer("m1", 1)
	bal.AddServer("m2", 1)
	tr, err := NewTraditional([]string{"m1", "m2"}, env, bal, env, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Hot but under red-line: the traditional policy does nothing.
	env.temps["m1"][model.NodeCPU] = 69
	tr.TickPeriod()
	if tr.Offline("m1") {
		t.Error("traditional policy acted below red-line")
	}
	w, _ := bal.Weight("m1")
	if w != 1 {
		t.Error("traditional policy adjusted a weight")
	}
	// Red-line: shut down.
	env.temps["m1"][model.NodeCPU] = 71.5
	tr.TickPeriod()
	if !tr.Offline("m1") {
		t.Error("red-lined server kept running")
	}
	if got := tr.OfflineMachines(); len(got) != 1 || got[0] != "m1" {
		t.Errorf("offline = %v", got)
	}
}
