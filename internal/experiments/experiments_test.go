package experiments

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/fiddle"
	"github.com/darklab/mercury/internal/freon"
	"github.com/darklab/mercury/internal/online"
)

func run(t *testing.T, fn func() (*Result, error)) *Result {
	t.Helper()
	r, err := fn()
	if err != nil {
		t.Fatal(err)
	}
	if r.Name == "" || r.Summary == "" {
		t.Fatalf("incomplete result: %+v", r)
	}
	if out := r.Render(); !strings.Contains(out, r.Name) {
		t.Error("Render missing experiment name")
	}
	return r
}

// checkSection3 pins every metric of a Section 3 experiment (Figures
// 5-8 and the Fluent comparison) at full precision in
// testdata/section3.golden, one "<experiment> <metric> <value>" line
// each, sorted. Each test checks its own experiment's lines; -update
// rewrites them and keeps the other experiments' lines.
func checkSection3(t *testing.T, r *Result) {
	t.Helper()
	golden := filepath.Join("testdata", "section3.golden")
	data, err := os.ReadFile(golden)
	if err != nil && !(*update && errors.Is(err, fs.ErrNotExist)) {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	prefix := r.Name + " "
	var lines []string
	for _, line := range strings.Split(string(data), "\n") {
		if line != "" && !strings.HasPrefix(line, prefix) {
			lines = append(lines, line)
		}
	}
	for k, v := range r.Metrics {
		lines = append(lines, prefix+k+" "+strconv.FormatFloat(v, 'g', -1, 64))
	}
	sort.Strings(lines)
	checkGolden(t, golden, strings.Join(lines, "\n")+"\n")
}

func TestTable1(t *testing.T) {
	r := run(t, Table1)
	if r.Metrics["components"] != 5 {
		t.Errorf("components = %v, want 5", r.Metrics["components"])
	}
	if r.Metrics["heat_edges"] != 6 {
		t.Errorf("heat edges = %v, want 6", r.Metrics["heat_edges"])
	}
	if r.Metrics["air_edges"] != 12 {
		t.Errorf("air edges = %v, want 12", r.Metrics["air_edges"])
	}
	if r.Metrics["inlet_temp"] != 21.6 || r.Metrics["fan_speed"] != 38.6 {
		t.Errorf("inlet/fan = %v/%v", r.Metrics["inlet_temp"], r.Metrics["fan_speed"])
	}
	out := r.Render()
	for _, want := range []string{"disk_platters", "0.336", "cpu_air", "0.75", "cluster_exhaust"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q", want)
		}
	}
}

func TestFig5CalibrationImproves(t *testing.T) {
	r := run(t, Fig5)
	checkSection3(t, r)
	pre, post := r.Metrics["pre_calibration_maxabs"], r.Metrics["post_calibration_maxabs"]
	if post > pre {
		t.Errorf("calibration worsened: %v -> %v", pre, post)
	}
	if post > 1.0 {
		t.Errorf("post-calibration max error %vC, want within 1C", post)
	}
	if r.Metrics["calibration_evals"] < 10 {
		t.Error("suspiciously few calibration evaluations")
	}
}

func TestFig6CalibrationImproves(t *testing.T) {
	r := run(t, Fig6)
	checkSection3(t, r)
	if r.Metrics["post_calibration_maxabs"] > 1.0 {
		t.Errorf("disk calibration max error = %v", r.Metrics["post_calibration_maxabs"])
	}
	if r.Metrics["post_calibration_maxabs"] > r.Metrics["pre_calibration_maxabs"] {
		t.Error("calibration worsened the disk fit")
	}
}

func TestFig7WithinOneDegree(t *testing.T) {
	// The paper's headline validation: "Mercury is able to emulate
	// temperatures within 1C at all times" on the combined benchmark.
	r := run(t, Fig7)
	checkSection3(t, r)
	if r.Metrics["validation_maxabs"] > 1.0 {
		t.Errorf("CPU air validation max error = %vC, want <= 1C", r.Metrics["validation_maxabs"])
	}
}

func TestFig8WithinOneDegree(t *testing.T) {
	r := run(t, Fig8)
	checkSection3(t, r)
	if r.Metrics["validation_maxabs"] > 1.0 {
		t.Errorf("disk validation max error = %vC, want <= 1C", r.Metrics["validation_maxabs"])
	}
}

func TestFluentAgreement(t *testing.T) {
	// Paper: within 0.32C (CPU) and 0.25C (disk) across 14 runs.
	r := run(t, Fluent)
	checkSection3(t, r)
	if r.Metrics["max_cpu_delta"] > 0.32 {
		t.Errorf("CPU delta = %v, want <= 0.32", r.Metrics["max_cpu_delta"])
	}
	if r.Metrics["max_disk_delta"] > 0.25 {
		t.Errorf("disk delta = %v, want <= 0.25", r.Metrics["max_disk_delta"])
	}
	if len(r.Tables) == 0 || len(r.Tables[0].Rows) != 14 {
		t.Error("fluent table should have 14 rows")
	}
}

func TestFig11FreonShape(t *testing.T) {
	r := run(t, Fig11)
	if r.Metrics["drop_rate"] != 0 {
		t.Errorf("Freon dropped %.3f%% of requests, paper served everything",
			100*r.Metrics["drop_rate"])
	}
	if r.Metrics["servers_shut_down"] != 0 {
		t.Error("Freon shut servers down; the whole point is not to")
	}
	// Hot machines crossed Th (67) but stayed under the red line (71).
	for _, m := range []string{"machine1", "machine3"} {
		max := r.Metrics["max_cpu_temp_"+m]
		if max < 67 || max >= 71 {
			t.Errorf("%s max CPU = %v, want in [67, 71)", m, max)
		}
		if r.Metrics["adjustments_"+m] == 0 {
			t.Errorf("%s received no load adjustments", m)
		}
	}
	// Unaffected machines stayed below Th.
	for _, m := range []string{"machine2", "machine4"} {
		if max := r.Metrics["max_cpu_temp_"+m]; max >= 67 {
			t.Errorf("%s max CPU = %v, want below Th", m, max)
		}
		if r.Metrics["adjustments_"+m] != 0 {
			t.Errorf("%s was adjusted without an emergency", m)
		}
	}
}

func TestTraditionalShape(t *testing.T) {
	r := run(t, Traditional)
	// Paper: machines 1 and 3 shut down; 14% of requests dropped. Our
	// substrate reproduces the shape: both emergency machines die and a
	// double-digit-ish share of the trace is lost.
	if r.Metrics["servers_shut_down"] != 2 {
		t.Errorf("servers shut down = %v, want 2", r.Metrics["servers_shut_down"])
	}
	dr := r.Metrics["drop_rate"]
	if dr < 0.05 || dr > 0.25 {
		t.Errorf("drop rate = %v, want around the paper's 0.14", dr)
	}
}

func TestFig12ECShape(t *testing.T) {
	r := run(t, Fig12)
	if r.Metrics["drop_rate"] != 0 {
		t.Errorf("Freon-EC dropped %.3f%% of requests", 100*r.Metrics["drop_rate"])
	}
	if r.Metrics["min_active_servers"] != 1 {
		t.Errorf("min active = %v, want 1 (deep valley shrink)", r.Metrics["min_active_servers"])
	}
	if r.Metrics["max_active_servers"] != 4 {
		t.Errorf("max active = %v, want 4 (peak)", r.Metrics["max_active_servers"])
	}
	if r.Metrics["turn_ons"] == 0 || r.Metrics["turn_offs"] == 0 {
		t.Error("no reconfigurations recorded")
	}
}

func TestECSavesEnergyVersusBase(t *testing.T) {
	base := run(t, Fig11)
	ec := run(t, Fig12)
	be, ee := base.Metrics["total_energy_joules"], ec.Metrics["total_energy_joules"]
	if ee >= be {
		t.Errorf("Freon-EC used %v J, base used %v J; EC must save energy", ee, be)
	}
	savings := (be - ee) / be
	if savings < 0.03 {
		t.Errorf("EC savings = %.1f%%, suspiciously small", savings*100)
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 13 {
		t.Errorf("registered experiments = %d, want 13", len(names))
	}
	for _, e := range All() {
		if e.Name == "" || e.Description == "" || e.Run == nil {
			t.Errorf("incomplete registration: %+v", e.Name)
		}
	}
	if _, err := Run("ghost"); err == nil {
		t.Error("unknown experiment: want error")
	}
	r, err := Run("table1")
	if err != nil || r.Name != "table1" {
		t.Errorf("Run(table1) = %v, %v", r, err)
	}
}

func TestRecircShape(t *testing.T) {
	r := run(t, Recirc)
	if r.Metrics["hot_spot_C"] < 1 {
		t.Errorf("hot spot = %v, want a visible gradient", r.Metrics["hot_spot_C"])
	}
	if r.Metrics["top_cpu_C"] <= r.Metrics["bottom_cpu_C"] {
		t.Error("top of rack not hotter than bottom")
	}
	if r.Metrics["ac_degrade_delta"] < 4 {
		t.Errorf("AC degradation delta = %v, want >= ~5.4 (27-21.6)", r.Metrics["ac_degrade_delta"])
	}
}

func TestMultiTierShape(t *testing.T) {
	r := run(t, MultiTier)
	if r.Metrics["drop_rate"] != 0 {
		t.Errorf("multi-tier drop rate = %v", r.Metrics["drop_rate"])
	}
	if r.Metrics["adjustments_machine3"] == 0 {
		t.Error("backend Freon never adjusted the hot machine")
	}
	if r.Metrics["adjustments_machine1"] != 0 || r.Metrics["adjustments_machine2"] != 0 {
		t.Error("frontend tier was adjusted without an emergency")
	}
	if max := r.Metrics["max_cpu_temp_machine3"]; max < 67 || max >= 71 {
		t.Errorf("hot backend max = %v, want in [67, 71)", max)
	}
	if r.Metrics["backend_jobs"] == 0 {
		t.Error("no backend jobs issued")
	}
}

func TestReplayScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("records and replays a 600s online run; skipped in -short")
	}
	r := run(t, ReplayRecorded)
	if r.Metrics["mismatches"] != 0 {
		t.Errorf("replay mismatches = %v, want 0", r.Metrics["mismatches"])
	}
	if r.Metrics["steps"] != replayDuration.Seconds() {
		t.Errorf("replayed steps = %v, want %v", r.Metrics["steps"], replayDuration.Seconds())
	}
	if r.Metrics["fiddles_applied"] == 0 {
		t.Error("no fiddle ops in the capture; the t=480s emergencies should be recorded")
	}
	if r.Metrics["record_drops"] != 0 {
		t.Errorf("recorder dropped %v records during a healthy run", r.Metrics["record_drops"])
	}
}

func TestSimValidation(t *testing.T) {
	if _, err := NewSim(0, 1, freonDuration); err == nil {
		t.Error("zero machines: want error")
	}
	sim, err := NewSim(2, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sim.Cluster.Machines()); got != 2 {
		t.Errorf("machines = %d", got)
	}
}

// TestSimRejectsFractionalCadence: a policy cadence the one-second
// loop cannot honour is an error naming the field, not a tick that
// runs at the wrong rate or never; a zero cadence is Freon's default,
// and a sim with no policy looks at none.
func TestSimRejectsFractionalCadence(t *testing.T) {
	cases := []struct {
		name         string
		poll, period time.Duration
		policy       bool
		want         string // "" = runs
	}{
		{"defaults", 5 * time.Second, time.Minute, true, ""},
		{"half-second poll", 500 * time.Millisecond, time.Minute, true, "ConnPoll"},
		{"zero poll", 0, time.Minute, true, ""},
		{"1500ms period", 5 * time.Second, 1500 * time.Millisecond, true, "Period"},
		{"no policy", 0, 1500 * time.Millisecond, false, ""},
	}
	for _, c := range cases {
		sim, err := NewSim(2, 1, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if c.policy {
			if sim.Policy, err = freon.New(sim.Cluster.Machines(), sim.Solver, sim.Bal, sim.Power(),
				freon.Config{ConnPoll: c.poll, Period: c.period}); err != nil {
				t.Fatal(err)
			}
		}
		err = sim.Run(10 * time.Second)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: Run = %v, want nil", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: Run = %v, want an error naming %s", c.name, err, c.want)
		case c.want != "" && sim.Clock.Elapsed() != 0:
			t.Errorf("%s: the sim advanced to %v before rejecting its cadence", c.name, sim.Clock.Elapsed())
		}
	}
}

func TestExperimentsAreRepeatable(t *testing.T) {
	// Mercury's headline property: "enables repeatable experiments".
	// Two independent runs of the same experiment must produce
	// bit-identical metrics — no wall-clock, randomness, or scheduling
	// leakage anywhere in the pipeline.
	for _, name := range []string{"fig11", "fig12", "trad"} {
		a, err := Run(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Metrics) != len(b.Metrics) {
			t.Fatalf("%s: metric sets differ", name)
		}
		for k, va := range a.Metrics {
			if vb, ok := b.Metrics[k]; !ok || va != vb {
				t.Errorf("%s: metric %s differs across runs: %v vs %v", name, k, va, vb)
			}
		}
	}
}

// The balancer and the web cluster have no lock: the lockstep loop is
// their only writer. The freon command's control plane reads a policy's
// StateSnapshot from an HTTP goroutine while that loop runs, and the
// snapshot reaches the balancer only through Weight, under the policy
// mutex that also orders every SetWeight. Run under -race, this drives
// the emergency run for both policies with a snapshot reader alongside.
func TestSnapshotDuringRunSharesNoBalancerState(t *testing.T) {
	for _, policy := range []string{"twostage", "ec"} {
		sim, err := NewSim(4, 1, 900*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		script, err := fiddle.ParseScript(online.Fig11Script)
		if err != nil {
			t.Fatal(err)
		}
		sim.Fiddle = script.Schedule()
		switch policy {
		case "twostage":
			if sim.Policy, err = freon.New(sim.Cluster.Machines(), sim.Solver, sim.Bal, sim.Power(), freon.Config{TwoStage: true}); err != nil {
				t.Fatal(err)
			}
		case "ec":
			regions := map[string]int{}
			for i, m := range sim.Cluster.Machines() {
				regions[m] = i % 2
			}
			if sim.Policy, err = freon.NewEC(sim.Cluster.Machines(), sim.Solver, sim.Solver, sim.Bal, sim.Power(),
				freon.ECConfig{Regions: regions}); err != nil {
				t.Fatal(err)
			}
		}
		snapshot := sim.Policy.StateSnapshot
		// The reader takes its first snapshot before the run starts and
		// keeps reading until the run ends.
		first, done := make(chan struct{}), make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				if len(snapshot().Machines) != 4 {
					t.Errorf("%s: snapshot without its 4 machines", policy)
				}
				if n == 0 {
					close(first)
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
		<-first
		err = sim.Run(900 * time.Second)
		close(done)
		wg.Wait()
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
	}
}
