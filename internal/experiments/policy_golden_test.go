package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/freon"
	"github.com/darklab/mercury/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRun is one policy's Figure 11 run with its observers attached.
type goldenRun struct {
	policy  freon.Policy
	metrics map[string]float64
	events  *telemetry.EventLog
	tracer  *causal.Tracer
}

// runPolicyGolden drives the Section 5 rig (seed 1, 2000 s, the Figure
// 11 emergency script) under one policy with an event log and a causal
// tracer on the sim's clock, and collects the metrics its experiment
// reports.
func runPolicyGolden(t *testing.T, policy string) goldenRun {
	t.Helper()
	r, err := newFreonRun()
	if err != nil {
		t.Fatal(err)
	}
	sim := r.sim
	g := goldenRun{
		metrics: map[string]float64{},
		events:  telemetry.NewEventLog(1<<16, sim.Clock),
		tracer:  causal.NewTracer(1<<16, sim.Clock),
	}
	cfg := freon.Config{Events: g.events, Tracer: g.tracer}
	var extra func()
	switch policy {
	case "base", "twostage":
		cfg.TwoStage = policy == "twostage"
		fr, err := freon.New(sim.Cluster.Machines(), sim.Solver, sim.Bal, sim.Power(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		sim.Policy = fr
		extra = func() {
			for _, m := range sim.Cluster.Machines() {
				g.metrics["adjustments_"+m] = float64(fr.Admd().Adjustments(m))
			}
			g.metrics["servers_shut_down"] = float64(fr.OfflineCount())
			g.metrics["cpu_high_threshold"] = float64(freon.DefaultComponents()[0].High)
		}
	case "ec":
		regions := map[string]int{"machine1": 0, "machine3": 0, "machine2": 1, "machine4": 1}
		ec, err := freon.NewEC(sim.Cluster.Machines(), sim.Solver, sim.Solver, sim.Bal, sim.Power(),
			freon.ECConfig{Config: cfg, Regions: regions})
		if err != nil {
			t.Fatal(err)
		}
		r.activeFn = ec.ActiveCount
		sim.Policy = ec
		extra = func() {
			g.metrics["min_active_servers"] = r.active.Min()
			g.metrics["max_active_servers"] = r.active.Max()
			g.metrics["turn_ons"] = float64(ec.TurnOns())
			g.metrics["turn_offs"] = float64(ec.TurnOffs())
		}
	case "traditional":
		tr, err := freon.NewTraditional(sim.Cluster.Machines(), sim.Solver, sim.Bal, sim.Power(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		sim.Policy = tr
		extra = func() { g.metrics["servers_shut_down"] = float64(len(tr.OfflineMachines())) }
	default:
		t.Fatalf("unknown policy %q", policy)
	}
	if err := sim.Run(freonDuration); err != nil {
		t.Fatal(err)
	}
	r.commonMetrics(g.metrics)
	extra()
	g.policy = sim.Policy
	if g.events.Seq() != uint64(g.events.Len()) || g.tracer.Seq() != uint64(g.tracer.Len()) {
		t.Fatalf("%s: an observer ring overflowed", policy)
	}
	return g
}

// TestSimPolicyGoldens pins what each Section 5 policy does on the
// Figure 11 rig in Sim — its decision log, its canonical causal spans
// and its experiment's metrics — so a change to the policies or to the
// loop that drives them cannot move any of them unnoticed. The
// traditional baseline pins its metrics only. The experiments
// themselves run with no observers attached; their metric maps must
// equal the observed runs', so observing a policy does not steer it.
// Run with -update to regenerate after an intentional change.
func TestSimPolicyGoldens(t *testing.T) {
	experiment := map[string]string{"base": "fig11", "ec": "fig12", "traditional": "trad"}
	for _, policy := range []string{"base", "twostage", "ec", "traditional"} {
		t.Run(policy, func(t *testing.T) {
			g := runPolicyGolden(t, policy)
			var b strings.Builder
			b.WriteString("metrics\n")
			for _, k := range sortedKeys(g.metrics) {
				fmt.Fprintf(&b, "%s %s\n", k, strconv.FormatFloat(g.metrics[k], 'g', -1, 64))
			}
			if policy != "traditional" {
				b.WriteString("events\n")
				for _, e := range g.events.Since(0) {
					b.WriteString(e.String())
					b.WriteByte('\n')
				}
				b.WriteString("spans\n")
				for _, s := range g.tracer.Canonical() {
					b.WriteString(s.String())
					b.WriteByte('\n')
				}
			}
			checkGolden(t, filepath.Join("testdata", "sim_"+policy+".golden"), b.String())

			if name, ok := experiment[policy]; ok {
				res, err := Run(name)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Metrics) != len(g.metrics) {
					t.Fatalf("%s reports %d metrics, the observed run %d", name, len(res.Metrics), len(g.metrics))
				}
				for k, v := range g.metrics {
					if res.Metrics[k] != v {
						t.Errorf("%s: %s = %v, observed run %v", name, k, res.Metrics[k], v)
					}
				}
			}
		})
	}
}

// TestSimTraditionalLogsRedLines: the baseline logs its decisions
// like the other policies — one red-line event for every machine it
// shut down.
func TestSimTraditionalLogsRedLines(t *testing.T) {
	g := runPolicyGolden(t, "traditional")
	var red []string
	for _, e := range g.events.Since(0) {
		if e.Type == telemetry.EvRedLine {
			red = append(red, e.Machine)
		}
	}
	off := g.policy.(*freon.Traditional).OfflineMachines()
	sort.Strings(red)
	if len(off) == 0 || strings.Join(red, ",") != strings.Join(off, ",") {
		t.Errorf("red-line events for %v, shut down %v", red, off)
	}
}

// checkGolden compares got with a golden file line by line, rewriting
// the file first under -update.
func checkGolden(t *testing.T, golden, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s diverges at line %d:\n  got:  %s\n  want: %s", golden, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", golden, len(gotLines), len(wantLines))
}
