package online_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/experiments"
	"github.com/darklab/mercury/internal/fiddle"
	"github.com/darklab/mercury/internal/freon"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/online"
	"github.com/darklab/mercury/internal/telemetry"
	"github.com/darklab/mercury/internal/units"
	"github.com/darklab/mercury/internal/webcluster"
)

var update = flag.Bool("update", false, "rewrite golden files")

// simFig11 runs the offline in-process Figure 11 rig for the given
// duration, sampling CPU temperatures on the online harness's cadence.
func simFig11(t *testing.T, duration time.Duration) (samples [][]units.Celsius, totals webcluster.Totals, fr *freon.Freon) {
	t.Helper()
	sim, err := experiments.NewSim(4, 1, duration)
	if err != nil {
		t.Fatal(err)
	}
	script, err := fiddle.ParseScript(online.Fig11Script)
	if err != nil {
		t.Fatal(err)
	}
	sim.Fiddle = script.Schedule()
	fr, err = freon.New(sim.Cluster.Machines(), sim.Solver, sim.Bal, sim.Power(), freon.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sim.Policy = fr
	machines := sim.Cluster.Machines()
	sim.OnSecond = func(sec int, _ webcluster.Tick) error {
		if (sec+1)%10 != 0 {
			return nil
		}
		row := make([]units.Celsius, len(machines))
		for i, m := range machines {
			temp, err := sim.Solver.Temperature(m, model.NodeCPU)
			if err != nil {
				return err
			}
			row[i] = temp
		}
		samples = append(samples, row)
		return nil
	}
	if err := sim.Run(duration); err != nil {
		t.Fatal(err)
	}
	return samples, sim.Cluster.Totals(), fr
}

// TestOnlineFig11MatchesSim is the headline end-to-end check: the full
// 2000-second Figure 11 emergency run over loopback UDP — solverd,
// four monitords, and Freon on a shared virtual clock — must
// reproduce the in-process simulation's temperature trajectory and
// outcome metrics, and (without the race detector) finish well inside
// the paper's real-time budget.
func TestOnlineFig11MatchesSim(t *testing.T) {
	if testing.Short() {
		t.Skip("full 2000s run; skipped in -short")
	}
	duration := 2000 * time.Second

	start := time.Now()
	res, err := online.Run(online.Config{
		Duration: duration,
		Script:   online.Fig11Script,
		CtlAddr:  "127.0.0.1:0", // control plane enabled: must not perturb the run
	})
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	t.Logf("online: %v emulated in %v wall (%.0fx warp)", duration, wall, duration.Seconds()/wall.Seconds())
	if !online.RaceEnabled && wall > 20*time.Second {
		t.Errorf("online run took %v of wall clock, budget 20s", wall)
	}

	simSamples, simTotals, fr := simFig11(t, duration)

	// Trajectories must agree within 0.1 C at every 10s sample.
	if len(res.Samples) != len(simSamples) {
		t.Fatalf("online took %d samples, sim %d", len(res.Samples), len(simSamples))
	}
	maxDiff := 0.0
	for i, s := range res.Samples {
		for j := range s.Temps {
			diff := math.Abs(float64(s.Temps[j] - simSamples[i][j]))
			if diff > maxDiff {
				maxDiff = diff
			}
			if diff > 0.1 {
				t.Fatalf("sample %d (sec %d) machine %s: online %.4f vs sim %.4f",
					i, s.Sec, res.Machines[j], s.Temps[j], simSamples[i][j])
			}
		}
	}
	t.Logf("max trajectory difference: %.6g C", maxDiff)

	// Outcome metrics must match the offline experiment.
	if res.Totals != simTotals {
		t.Errorf("totals: online %+v, sim %+v", res.Totals, simTotals)
	}
	if res.Totals.DropRate() != 0 {
		t.Errorf("drop rate = %v, want 0 (Figure 11)", res.Totals.DropRate())
	}
	if res.ServersShutDown != 0 {
		t.Errorf("servers shut down = %d, want 0", res.ServersShutDown)
	}
	for _, m := range []string{"machine1", "machine3"} {
		if res.Adjustments[m] == 0 {
			t.Errorf("%s: no weight adjustments; Freon never reacted", m)
		}
		if got, want := res.Adjustments[m], fr.Admd().Adjustments(m); got != want {
			t.Errorf("%s adjustments: online %d, sim %d", m, got, want)
		}
		if res.MaxCPUTemp[m] >= 71 {
			t.Errorf("%s peaked at %v C, red line is 71", m, res.MaxCPUTemp[m])
		}
	}
	for _, m := range []string{"machine2", "machine4"} {
		if res.Adjustments[m] != 0 {
			t.Errorf("%s: %d adjustments on a cool machine", m, res.Adjustments[m])
		}
	}

	// The virtual clock must not have coalesced or lost any ticks.
	if res.SolverSteps != uint64(duration/time.Second) {
		t.Errorf("solver steps = %d, want %d", res.SolverSteps, duration/time.Second)
	}
	if res.MissedTicks != 0 {
		t.Errorf("missed ticks = %d, want 0", res.MissedTicks)
	}
	if res.UtilUpdates != uint64(4*duration/time.Second) {
		t.Errorf("util updates = %d, want %d", res.UtilUpdates, 4*duration/time.Second)
	}
}

// TestOnlineDeterministic runs the same seeded emergency twice — with
// the control plane enabled — and requires every sampled temperature,
// totals, adjustment count, and thermal event to be identical bit for
// bit. The script schedules the emergency at 60 s (instead of Figure
// 11's 480 s) so the short run exercises the event log.
func TestOnlineDeterministic(t *testing.T) {
	script := "#!/bin/bash\nsleep 60\nfiddle machine1 temperature inlet 38.6\nfiddle machine3 temperature inlet 35.6\n"
	cfg := online.Config{
		Duration: 300 * time.Second,
		Script:   script,
		CtlAddr:  "127.0.0.1:0",
		Trace:    true,
	}
	a, err := online.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := online.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		for j := range a.Samples[i].Temps {
			if a.Samples[i].Temps[j] != b.Samples[i].Temps[j] {
				t.Fatalf("sample %d machine %d differs: %v vs %v",
					i, j, a.Samples[i].Temps[j], b.Samples[i].Temps[j])
			}
		}
	}
	if a.Totals != b.Totals {
		t.Errorf("totals differ: %+v vs %+v", a.Totals, b.Totals)
	}
	for m, n := range a.Adjustments {
		if b.Adjustments[m] != n {
			t.Errorf("%s adjustments differ: %d vs %d", m, n, b.Adjustments[m])
		}
	}

	// The thermal event log must replay identically, timestamps
	// included. The two fiddle applications guarantee it is non-empty.
	if len(a.Events) < 2 {
		t.Fatalf("only %d events logged, want at least the 2 fiddle ops", len(a.Events))
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs:\n  %s\n  %s", i, a.Events[i], b.Events[i])
		}
	}
	if a.CtlAddr == "" {
		t.Error("control plane address not reported")
	}

	// The canonical span set must also replay bit for bit — trace IDs,
	// span IDs, parents, clock stamps, everything.
	if len(a.Spans) == 0 {
		t.Fatal("tracing enabled but no spans recorded")
	}
	if len(a.Spans) != len(b.Spans) {
		t.Fatalf("span counts differ: %d vs %d", len(a.Spans), len(b.Spans))
	}
	for i := range a.Spans {
		if a.Spans[i] != b.Spans[i] {
			t.Fatalf("span %d differs:\n  %s\n  %s", i, a.Spans[i], b.Spans[i])
		}
	}
}

// TestOnlineRejectsFractionalCadence: a Freon cadence the one-second
// lockstep tick cannot honour is refused by name before anything is
// booted — a 500 ms poll used to panic dividing by zero, a 1500 ms
// period silently ran every second.
func TestOnlineRejectsFractionalCadence(t *testing.T) {
	for field, fc := range map[string]freon.Config{
		"Freon.ConnPoll": {ConnPoll: 500 * time.Millisecond},
		"Freon.Period":   {Period: 1500 * time.Millisecond},
	} {
		// A Record directory that does not exist would fail the boot; the
		// cadence must be refused first.
		_, err := online.Run(online.Config{Duration: 10 * time.Second, Freon: fc, Record: "/nonexistent/dir"})
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s: Run = %v, want an error naming the field", field, err)
		}
	}
}

// TestOnlineFreonCadence: the harness calls Freon itself, so the tick
// counts it reports are exact — every whole multiple of the cadence
// inside the run, defaults or not.
func TestOnlineFreonCadence(t *testing.T) {
	for _, c := range []struct {
		fc             freon.Config
		polls, periods uint64
	}{
		{freon.Config{}, 24, 2},
		{freon.Config{ConnPoll: 2 * time.Second, Period: 7 * time.Second}, 60, 17},
	} {
		res, err := online.Run(online.Config{Duration: 120 * time.Second, Freon: c.fc})
		if err != nil {
			t.Fatal(err)
		}
		if res.FreonPolls != c.polls || res.FreonPeriod != c.periods {
			t.Errorf("poll %v period %v: %d polls, %d periods, want %d and %d",
				c.fc.ConnPoll, c.fc.Period, res.FreonPolls, res.FreonPeriod, c.polls, c.periods)
		}
		if res.SolverSteps != 120 || res.MissedTicks != 0 {
			t.Errorf("%d solver steps (%d missed), want 120 and none", res.SolverSteps, res.MissedTicks)
		}
	}
}

// TestRunStopsGenerator: the request trace's producer goroutine ends on
// its own, so Run leaves no goroutine behind — after a complete run and
// after one cut short by an error, here a fiddle op at t=5 s naming a
// machine the cluster does not have.
func TestRunStopsGenerator(t *testing.T) {
	settled := func(when string, baseline int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, want the baseline %d", when, runtime.NumGoroutine(), baseline)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	baseline := runtime.NumGoroutine()
	if _, err := online.Run(online.Config{Duration: 60 * time.Second}); err != nil {
		t.Fatal(err)
	}
	settled("after a complete run", baseline)
	_, err := online.Run(online.Config{Duration: 60 * time.Second, Script: "sleep 5\nfiddle machine9 temperature inlet 30\n"})
	if err == nil || !strings.Contains(err.Error(), "fiddle at 5s") {
		t.Fatalf("Run = %v, want the t=5s fiddle to fail", err)
	}
	settled("after a failed run", baseline)
}

// TestOnlineFig11EventsGolden pins the full Figure 11 thermal event
// sequence — fiddle ops, emergency edges, PD outputs, weight and
// connection-cap changes, releases — to a golden file. Run with
// -update to regenerate after an intentional policy change.
func TestOnlineFig11EventsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full 2000s run; skipped in -short")
	}
	res, err := online.Run(online.Config{Duration: 2000 * time.Second, Script: online.Fig11Script})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range res.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	got := b.String()

	golden := filepath.Join("testdata", "fig11_events.golden")
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
	if got != string(want) {
		gotLines := strings.Split(got, "\n")
		wantLines := strings.Split(string(want), "\n")
		n := len(gotLines)
		if len(wantLines) < n {
			n = len(wantLines)
		}
		for i := 0; i < n; i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("event log diverges from golden at line %d:\n  got:  %s\n  want: %s",
					i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("event log length differs from golden: got %d lines, want %d",
			len(gotLines), len(wantLines))
	}

	// Spot-check the sequence's shape: the two fiddle ops land at
	// t=480.5s, and machine1 must raise an emergency before machine3
	// (its inlet is 3 degrees hotter).
	var fiddles, raised []telemetry.Event
	for _, e := range res.Events {
		switch e.Type {
		case telemetry.EvFiddle:
			fiddles = append(fiddles, e)
		case telemetry.EvEmergencyRaised:
			raised = append(raised, e)
		}
	}
	if len(fiddles) != 2 || fiddles[0].At != 480500*time.Millisecond {
		t.Errorf("fiddle events = %v", fiddles)
	}
	if len(raised) == 0 || raised[0].Machine != "machine1" {
		t.Errorf("emergency-raised events = %v", raised)
	}
}

// TestOnlineFig11TraceGolden runs the Figure 11 emergency with causal
// tracing on and pins the emergency traces — onset, PD outputs, sensor
// reads, weight and cap actuations, recovery — to a golden file. It
// also asserts the structural property the tracing layer exists for:
// at least one trace forms a connected tree from the emergency root
// through a PD decision and an admd actuation to the recovery.
func TestOnlineFig11TraceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full 2000s run; skipped in -short")
	}
	res, err := online.Run(online.Config{
		Duration: 2000 * time.Second,
		Script:   online.Fig11Script,
		Trace:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spans) == 0 {
		t.Fatal("tracing enabled but no spans recorded")
	}

	// Collect the traces rooted by an emergency span; the golden pins
	// exactly those (the background sample/step traces would bloat it
	// to tens of thousands of lines).
	roots := map[uint64]causal.Span{}
	for _, s := range res.Spans {
		if s.Kind == causal.KindEmergency {
			roots[s.Trace] = s
		}
	}
	if len(roots) == 0 {
		t.Fatal("no emergency spans; the Figure 11 emergency was not traced")
	}
	byTrace := map[uint64][]causal.Span{}
	for _, s := range res.Spans {
		if _, ok := roots[s.Trace]; ok {
			byTrace[s.Trace] = append(byTrace[s.Trace], s)
		}
	}

	var b strings.Builder
	var emergency []causal.Span
	for _, s := range res.Spans {
		if _, ok := roots[s.Trace]; ok {
			emergency = append(emergency, s)
		}
	}
	for _, s := range emergency {
		b.WriteString(s.String())
		b.WriteByte('\n')
	}
	got := b.String()

	golden := filepath.Join("testdata", "fig11_trace.golden")
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
	if got != string(want) {
		gotLines := strings.Split(got, "\n")
		wantLines := strings.Split(string(want), "\n")
		n := len(gotLines)
		if len(wantLines) < n {
			n = len(wantLines)
		}
		for i := 0; i < n; i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("trace log diverges from golden at line %d:\n  got:  %s\n  want: %s",
					i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("trace log length differs from golden: got %d lines, want %d",
			len(gotLines), len(wantLines))
	}

	// Structural check: a fully connected emergency trace — every span
	// except the root points at a parent inside the trace, and the
	// onset → PD output → actuation → recovery chain is present.
	complete := 0
	for traceID, spans := range byTrace {
		ids := map[uint64]bool{}
		for _, s := range spans {
			ids[s.ID] = true
		}
		kinds := map[causal.Kind]bool{}
		connected := true
		for _, s := range spans {
			kinds[s.Kind] = true
			if s.Kind == causal.KindEmergency {
				continue
			}
			if s.Parent == 0 || !ids[s.Parent] {
				t.Errorf("trace %016x: span %s has parent outside the trace", traceID, s)
				connected = false
			}
		}
		if connected && kinds[causal.KindPDOutput] && kinds[causal.KindRecovery] &&
			(kinds[causal.KindWeight] || kinds[causal.KindConnCap] || kinds[causal.KindClassBlock]) {
			complete++
		}
	}
	if complete == 0 {
		t.Errorf("no trace links emergency onset through a PD output and an actuation to recovery; traces = %d", len(byTrace))
	}
}

// TestOnlineShardedMatchesSim is the horizontal-sharding invariant at
// the harness level: the same emergency run across {1,2,4} solverd
// shards and {1, auto} solver workers over loopback UDP must be
// bit-identical — every sampled temperature, the thermal event log,
// and the canonical span set — to the single-daemon baseline, which
// the existing Fig-11 tests tie to the in-process Sim. The script
// includes an AC setpoint change, the fiddle op that crosses every
// shard boundary (sources are global, so the harness broadcasts it).
func TestOnlineShardedMatchesSim(t *testing.T) {
	script := "#!/bin/bash\n" +
		"sleep 60\n" +
		"fiddle machine1 temperature inlet 38.6\n" +
		"fiddle machine3 temperature inlet 35.6\n" +
		"sleep 60\n" +
		"fiddle source ac temperature 23.5\n"
	base := online.Config{
		Duration: 300 * time.Second,
		Script:   script,
		Trace:    true,
		Shards:   1,
		Workers:  1,
	}
	want, err := online.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Samples) == 0 || len(want.Events) == 0 || len(want.Spans) == 0 {
		t.Fatalf("baseline run is degenerate: %d samples, %d events, %d spans",
			len(want.Samples), len(want.Events), len(want.Spans))
	}
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 0} {
			if shards == 1 && workers == 1 {
				continue // the baseline itself
			}
			t.Run(fmt.Sprintf("shards=%d_workers=%d", shards, workers), func(t *testing.T) {
				cfg := base
				cfg.Shards = shards
				cfg.Workers = workers
				got, err := online.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Samples) != len(want.Samples) {
					t.Fatalf("sample counts differ: %d vs %d", len(got.Samples), len(want.Samples))
				}
				for i := range want.Samples {
					for j := range want.Samples[i].Temps {
						if got.Samples[i].Temps[j] != want.Samples[i].Temps[j] {
							t.Fatalf("sample %d machine %s: sharded %v != baseline %v",
								i, want.Machines[j], got.Samples[i].Temps[j], want.Samples[i].Temps[j])
						}
					}
				}
				if got.Totals != want.Totals {
					t.Errorf("totals differ: %+v vs %+v", got.Totals, want.Totals)
				}
				for m, n := range want.Adjustments {
					if got.Adjustments[m] != n {
						t.Errorf("%s adjustments: sharded %d, baseline %d", m, got.Adjustments[m], n)
					}
				}
				if len(got.Events) != len(want.Events) {
					t.Fatalf("event counts differ: %d vs %d", len(got.Events), len(want.Events))
				}
				for i := range want.Events {
					if got.Events[i] != want.Events[i] {
						t.Fatalf("event %d differs:\n  sharded:  %s\n  baseline: %s",
							i, got.Events[i], want.Events[i])
					}
				}
				if len(got.Spans) != len(want.Spans) {
					t.Fatalf("span counts differ: %d vs %d", len(got.Spans), len(want.Spans))
				}
				for i := range want.Spans {
					if got.Spans[i] != want.Spans[i] {
						t.Fatalf("span %d differs:\n  sharded:  %s\n  baseline: %s",
							i, got.Spans[i], want.Spans[i])
					}
				}
				if got.SolverSteps != want.SolverSteps {
					t.Errorf("solver steps: sharded %d, baseline %d", got.SolverSteps, want.SolverSteps)
				}
				// Every shard applied exactly its own machines' updates.
				if got.UtilUpdates != want.UtilUpdates {
					t.Errorf("util updates: sharded %d, baseline %d", got.UtilUpdates, want.UtilUpdates)
				}
			})
		}
	}
}

// TestOnlineBatchedMonitord runs the batched-monitord variant: one
// MsgUtilBatch daemon per shard instead of one monitord per machine.
// Temperatures and events must stay bit-identical to the per-machine
// baseline (spans are not compared — batching legitimately collapses
// the per-machine sample spans into one per shard).
func TestOnlineBatchedMonitord(t *testing.T) {
	script := "#!/bin/bash\nsleep 60\nfiddle machine1 temperature inlet 38.6\n"
	base := online.Config{Duration: 200 * time.Second, Script: script, Shards: 2}
	want, err := online.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Batch = true
	got, err := online.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Both modes send MsgUtilBatch, per-machine daemons a batch of one,
	// so batching shows as fewer datagrams.
	if got.UtilBatches == 0 || got.UtilBatches >= want.UtilBatches {
		t.Fatalf("batch mode sent %d utilization datagrams, per-machine mode %d: want fewer, and some", got.UtilBatches, want.UtilBatches)
	}
	if len(got.Samples) != len(want.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(got.Samples), len(want.Samples))
	}
	for i := range want.Samples {
		for j := range want.Samples[i].Temps {
			if got.Samples[i].Temps[j] != want.Samples[i].Temps[j] {
				t.Fatalf("sample %d machine %d: batched %v != per-machine %v",
					i, j, got.Samples[i].Temps[j], want.Samples[i].Temps[j])
			}
		}
	}
	if len(got.Events) != len(want.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(got.Events), len(want.Events))
	}
	for i := range want.Events {
		if got.Events[i] != want.Events[i] {
			t.Fatalf("event %d differs:\n  batched:     %s\n  per-machine: %s", i, got.Events[i], want.Events[i])
		}
	}
	if got.UtilUpdates != want.UtilUpdates {
		t.Errorf("util updates: batched %d, per-machine %d", got.UtilUpdates, want.UtilUpdates)
	}
}

// BenchmarkOnlineWarp measures the warp throughput of the full online
// stack in emulated seconds per wall second.
func BenchmarkOnlineWarp(b *testing.B) {
	const emu = 500 * time.Second
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := online.Run(online.Config{Duration: emu, Script: online.Fig11Script}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(emu.Seconds()*float64(b.N)/b.Elapsed().Seconds(), "emu-s/s")
}

// TestOnlineSurrogatePassive pins the surrogate's non-interference
// contract: attaching a recording surrogate to the online stack must
// not perturb a single temperature, event, or span — recording is a
// read-only observer of the stepping ticker — while still filling the
// sample ring the background fitter trains on.
func TestOnlineSurrogatePassive(t *testing.T) {
	script := "#!/bin/bash\nsleep 60\nfiddle machine1 temperature inlet 38.6\nfiddle machine3 temperature inlet 35.6\n"
	base := online.Config{Duration: 300 * time.Second, Script: script, Trace: true}
	want, err := online.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Surrogate = true
	got, err := online.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if got.Surrogate == nil {
		t.Fatal("Config.Surrogate set but Result.Surrogate is nil")
	}
	// Default stride records once a minute of emulated time: a 300 s
	// run must have banked trajectory samples.
	if got.Surrogate.Samples < 4 {
		t.Errorf("surrogate recorded %d samples over 300s, want >= 4", got.Surrogate.Samples)
	}
	if want.Surrogate != nil {
		t.Error("Result.Surrogate set on a run without Config.Surrogate")
	}

	if len(got.Samples) != len(want.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(got.Samples), len(want.Samples))
	}
	for i := range want.Samples {
		for j := range want.Samples[i].Temps {
			if got.Samples[i].Temps[j] != want.Samples[i].Temps[j] {
				t.Fatalf("sample %d machine %d: with surrogate %v != without %v",
					i, j, got.Samples[i].Temps[j], want.Samples[i].Temps[j])
			}
		}
	}
	if len(got.Events) != len(want.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(got.Events), len(want.Events))
	}
	for i := range want.Events {
		if got.Events[i] != want.Events[i] {
			t.Fatalf("event %d differs:\n  with surrogate: %s\n  without:        %s", i, got.Events[i], want.Events[i])
		}
	}
	if len(got.Spans) != len(want.Spans) {
		t.Fatalf("span counts differ: %d vs %d", len(got.Spans), len(want.Spans))
	}
	for i := range want.Spans {
		if got.Spans[i] != want.Spans[i] {
			t.Fatalf("span %d differs:\n  with surrogate: %s\n  without:        %s", i, got.Spans[i], want.Spans[i])
		}
	}
	if got.Totals != want.Totals {
		t.Errorf("totals differ: %+v vs %+v", got.Totals, want.Totals)
	}

	// Sharded runs must refuse the flag instead of fitting a model that
	// can only see one region's inputs.
	bad := base
	bad.Surrogate = true
	bad.Shards = 2
	if _, err := online.Run(bad); err == nil {
		t.Fatal("sharded run accepted Config.Surrogate")
	}
}
