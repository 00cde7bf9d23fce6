package dash

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/alert"
	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/ctl"
	"github.com/darklab/mercury/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestParseTargets(t *testing.T) {
	ts, err := ParseTargets("solverd=http://127.0.0.1:9367, 127.0.0.1:9368")
	if err != nil {
		t.Fatal(err)
	}
	want := []Target{
		{Name: "solverd", URL: "http://127.0.0.1:9367"},
		{Name: "127.0.0.1:9368", URL: "http://127.0.0.1:9368"},
	}
	if len(ts) != 2 || ts[0] != want[0] || ts[1] != want[1] {
		t.Errorf("targets = %+v, want %+v", ts, want)
	}
	if _, err := ParseTargets(" , "); err == nil {
		t.Error("empty target list accepted")
	}
}

// twoDaemons boots two ctl servers on a shared virtual clock — one
// with a tracer, as solverd would run, one with only an event log, as
// monitord would — and returns them with their feeds.
func twoDaemons(t *testing.T) (targets []Target, logA, logB *telemetry.EventLog, tr *causal.Tracer, clk *clock.Virtual) {
	t.Helper()
	clk = clock.NewVirtual()
	logA = telemetry.NewEventLog(64, clk)
	logB = telemetry.NewEventLog(64, clk)
	tr = causal.NewTracer(64, clk)

	regA := telemetry.NewRegistry()
	steps := regA.Counter("mercury_solver_steps_total", "steps")
	for i := 0; i < 42; i++ {
		steps.Inc()
	}
	srvA := ctl.New(ctl.WithEvents(logA), ctl.WithTracer(tr), ctl.WithRegistry(regA),
		ctl.WithState(func() any { return map[string]any{"machines": 4} }))
	addrA, err := srvA.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srvA.Close() })

	srvB := ctl.New(ctl.WithEvents(logB))
	addrB, err := srvB.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srvB.Close() })

	targets = []Target{
		{Name: "solverd", URL: "http://" + addrA},
		{Name: "monitord1", URL: "http://" + addrB},
	}
	return targets, logA, logB, tr, clk
}

// seedEmergency populates the daemons with a deterministic emergency:
// events on both logs and a connected trace on the solverd tracer.
func seedEmergency(logA, logB *telemetry.EventLog, tr *causal.Tracer, clk *clock.Virtual) {
	clk.Advance(10 * time.Second)
	logB.Emit(telemetry.EvEmergencyRaised, "machine1", "cpu", 67.5, "")
	root := causal.Span{
		Trace: tr.NewTrace("machine1"), Kind: causal.KindEmergency,
		Begin: tr.Now(), End: tr.Now(), Machine: "machine1", Node: "cpu", Value: 67.5,
	}
	root.ID = tr.Emit(root)

	clk.Advance(1 * time.Second)
	logA.Emit(telemetry.EvPDOutput, "machine1", "", 0.6, "cpu")
	pd := causal.Span{
		Trace: root.Trace, Parent: root.ID, Kind: causal.KindPDOutput,
		Begin: tr.Now(), End: tr.Now(), Machine: "machine1", Value: 0.6,
	}
	pd.ID = tr.Emit(pd)

	clk.Advance(1 * time.Second)
	logA.Emit(telemetry.EvWeightChange, "machine1", "", 0.55, "")
	tr.Emit(causal.Span{
		Trace: root.Trace, Parent: pd.ID, Kind: causal.KindWeight,
		Begin: tr.Now(), End: tr.Now(), Machine: "machine1", Value: 0.55,
	})

	clk.Advance(120 * time.Second)
	logA.Emit(telemetry.EvRelease, "machine1", "", 0, "")
	tr.Emit(causal.Span{
		Trace: root.Trace, Parent: root.ID, Kind: causal.KindRecovery,
		Begin: tr.Now(), End: tr.Now(), Machine: "machine1",
	})
}

func TestAggregateTwoDaemons(t *testing.T) {
	targets, logA, logB, tr, clk := twoDaemons(t)
	seedEmergency(logA, logB, tr, clk)

	a := New(targets, nil)
	if err := a.PollOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	cs := a.State()
	if len(cs.Targets) != 2 {
		t.Fatalf("targets = %d", len(cs.Targets))
	}
	for _, ts := range cs.Targets {
		if !ts.Healthy {
			t.Errorf("target %s unhealthy: %s", ts.Name, ts.Error)
		}
	}
	if cs.Targets[0].Spans != 4 || cs.Targets[0].Events != 3 {
		t.Errorf("solverd spans=%d events=%d, want 4 and 3", cs.Targets[0].Spans, cs.Targets[0].Events)
	}
	if cs.Targets[1].Events != 1 {
		t.Errorf("monitord1 events=%d, want 1", cs.Targets[1].Events)
	}
	if cs.Traces != 1 || cs.Emergencies != 1 || cs.Recovered != 1 {
		t.Errorf("traces=%d emergencies=%d recovered=%d", cs.Traces, cs.Emergencies, cs.Recovered)
	}
	if m := cs.Targets[0].Metrics["mercury_solver_steps_total"]; m != 42 {
		t.Errorf("scraped solver steps = %v, want 42", m)
	}
	if cs.Targets[0].State == nil {
		t.Error("solverd /state not embedded")
	}

	// The merged timeline interleaves both daemons' events with the
	// spans, time-ordered, events first at equal stamps.
	tl := a.Timeline()
	if len(tl) != 8 {
		t.Fatalf("timeline length = %d, want 8", len(tl))
	}
	if tl[0].Source != "monitord1" || tl[0].Event == nil || tl[0].Event.Type != telemetry.EvEmergencyRaised {
		t.Errorf("timeline[0] = %+v", tl[0])
	}
	if tl[1].Span == nil || tl[1].Span.Kind != causal.KindEmergency {
		t.Errorf("timeline[1] = %+v", tl[1])
	}
	for i := 1; i < len(tl); i++ {
		if tl[i].At < tl[i-1].At {
			t.Errorf("timeline out of order at %d: %v after %v", i, tl[i].At, tl[i-1].At)
		}
	}

	// Latency histograms: actuation 2s after detection, recovery 122s.
	if n := a.detectToActuate.Count(); n != 1 {
		t.Errorf("detect-to-actuate count = %d", n)
	}
	if s := a.detectToActuate.Sum(); s != 2 {
		t.Errorf("detect-to-actuate sum = %v, want 2", s)
	}
	if s := a.detectToRecover.Sum(); s != 122 {
		t.Errorf("detect-to-recover sum = %v, want 122", s)
	}

	// A second poll must not double-ingest or double-observe.
	if err := a.PollOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := len(a.Timeline()); n != 8 {
		t.Errorf("timeline after re-poll = %d, want 8", n)
	}
	if n := a.detectToActuate.Count(); n != 1 {
		t.Errorf("detect-to-actuate count after re-poll = %d", n)
	}
}

func TestShardLabel(t *testing.T) {
	cases := []struct {
		raw  string
		want string
	}{
		{`{"machines":4}`, ""},
		{`{"region":0,"regions":1}`, ""},
		{`{"region":0,"regions":2}`, "0/2"},
		{`{"region":3,"regions":4,"machines":16}`, "3/4"},
		{`not json`, ""},
	}
	for _, c := range cases {
		if got := shardLabel(json.RawMessage(c.raw)); got != c.want {
			t.Errorf("shardLabel(%s) = %q, want %q", c.raw, got, c.want)
		}
	}
	if got := shardLabel(nil); got != "" {
		t.Errorf("shardLabel(nil) = %q, want empty", got)
	}
}

// TestAggregateShardedState checks that a sharded solverd's region
// labels surface as the target's shard label in /state.
func TestAggregateShardedState(t *testing.T) {
	srv := ctl.New(ctl.WithState(func() any {
		return map[string]any{"machines": 8, "region": 1, "regions": 2}
	}))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	a := New([]Target{{Name: "solverd1", URL: "http://" + addr}}, nil)
	if err := a.PollOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	cs := a.State()
	if len(cs.Targets) != 1 || cs.Targets[0].Shard != "1/2" {
		t.Fatalf("shard label = %+v, want 1/2", cs.Targets)
	}
}

func TestStreamSSE(t *testing.T) {
	targets, logA, logB, _, clk := twoDaemons(t)

	a := New(targets, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a.Stream(ctx)

	// Give the subscriptions a moment to connect, then emit live.
	time.Sleep(100 * time.Millisecond)
	clk.Advance(5 * time.Second)
	logA.Emit(telemetry.EvPDOutput, "machine2", "", 0.3, "")
	logB.Emit(telemetry.EvEmergencyRaised, "machine2", "cpu", 68, "")

	deadline := time.Now().Add(5 * time.Second)
	for {
		tl := a.Timeline()
		if len(tl) >= 2 {
			srcs := map[string]bool{}
			for _, e := range tl {
				srcs[e.Source] = true
			}
			if srcs["solverd"] && srcs["monitord1"] {
				return // both daemons' live streams reached the timeline
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeline after SSE = %+v", tl)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestChromeTraceGolden(t *testing.T) {
	targets, logA, logB, tr, clk := twoDaemons(t)
	seedEmergency(logA, logB, tr, clk)

	a := New(targets, nil)
	if err := a.PollOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	// Structural validity: the export must parse back and contain the
	// span slices and event instants with microsecond stamps.
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(got, &parsed); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var slices, instants int
	for _, ev := range parsed.TraceEvents {
		switch ev["ph"] {
		case "X":
			slices++
		case "i":
			instants++
		}
	}
	if slices != 4 || instants != 4 {
		t.Errorf("export has %d slices and %d instants, want 4 and 4", slices, instants)
	}

	golden := filepath.Join("testdata", "chrome_trace.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Chrome trace export differs from golden; run with -update after intentional changes\ngot:\n%s", got)
	}
}

// TestAggregateAlerts checks that a target's /alerts snapshot is
// embedded in the aggregate state with its pending/firing counters
// lifted and summed cluster-wide, and that alert-less targets stay
// healthy (their 404 is tolerated, like /spans).
func TestAggregateAlerts(t *testing.T) {
	clk := clock.NewVirtual()
	eng, err := alert.New(alert.Config{
		Rules:  []alert.Rule{{Name: "hot", Kind: "threshold"}},
		Step:   time.Second,
		Probes: []alert.Probe{{Machine: "machine1", Node: "cpu", Low: 64, High: 67, RedLine: 71}},
		Fill:   func(dst []float64) int { dst[0] = 70; return 1 },
		Clock:  clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.EvalTick(1) // 70C > High 67C with no for-duration: firing at once

	srvA := ctl.New(ctl.WithAlerts(func() any { return eng.State() }, eng.Transitions()))
	addrA, err := srvA.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srvA.Close() })
	srvB := ctl.New(ctl.WithState(func() any { return map[string]any{"machines": 1} }))
	addrB, err := srvB.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srvB.Close() })

	a := New([]Target{
		{Name: "solverd", URL: "http://" + addrA},
		{Name: "monitord1", URL: "http://" + addrB},
	}, nil)
	if err := a.PollOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	cs := a.State()
	if cs.AlertsFiring != 1 || cs.AlertsPending != 0 {
		t.Errorf("cluster firing=%d pending=%d, want 1 and 0", cs.AlertsFiring, cs.AlertsPending)
	}
	if ts := cs.Targets[0]; ts.Alerts == nil || ts.AlertsFiring != 1 {
		t.Errorf("solverd alerts=%s firing=%d, want snapshot and 1", ts.Alerts, ts.AlertsFiring)
	}
	if ts := cs.Targets[1]; ts.Alerts != nil || ts.Error != "" {
		t.Errorf("alert-less target: alerts=%s err=%q, want none", ts.Alerts, ts.Error)
	}
}
