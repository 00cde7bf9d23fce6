// Command freon runs a Freon-managed emulated web cluster: the
// Section 5 rig (Table 1 servers + LVS-style balancer + diurnal web
// trace + the two-machine inlet emergency at t=480s) under a selected
// policy, printing a per-minute timeline and the final summary.
//
//	freon -policy base
//	freon -policy twostage    # content-aware first stage (Section 4.3)
//	freon -policy ec
//	freon -policy traditional
//	freon -policy none        # no thermal management at all
//
// With -online the base-policy rig runs end to end over loopback UDP
// instead of in process — solverd, one monitord per machine, and
// Freon's daemons on a shared virtual clock at warp speed (see
// docs/virtual-time.md):
//
//	freon -online -duration 2000s
//
// -ctl starts an HTTP control plane with /healthz, /metrics, /state,
// and /events — in -online mode it is served by the solver daemon; in
// simulation mode it exposes Freon's per-machine state and thermal
// event stream while the run advances (see docs/observability.md):
//
//	freon -policy base -ctl 127.0.0.1:9369
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/darklab/mercury/internal/alert"
	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/ctl"
	"github.com/darklab/mercury/internal/daemon"
	"github.com/darklab/mercury/internal/experiments"
	"github.com/darklab/mercury/internal/fiddle"
	"github.com/darklab/mercury/internal/freon"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/online"
	"github.com/darklab/mercury/internal/telemetry"
	"github.com/darklab/mercury/internal/webcluster"
)

func main() {
	var (
		policy    = flag.String("policy", "base", "thermal policy: base, twostage, ec, traditional, none")
		machines  = flag.Int("machines", 4, "cluster size")
		duration  = flag.Duration("duration", 2000*time.Second, "emulated run length")
		seed      = flag.Int64("seed", 1, "workload seed")
		quiet     = flag.Bool("quiet", false, "suppress the per-minute timeline")
		onlineRun = flag.Bool("online", false, "run the base policy over loopback UDP daemons at warp speed")
		fl        daemon.Flags
	)
	fl.Register(flag.CommandLine)
	flag.Parse()

	var err error
	if *onlineRun {
		err = runOnline(*policy, *quiet, *machines, *duration, *seed, fl)
	} else {
		err = run(*policy, *machines, *duration, *seed, *quiet, fl)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "freon:", err)
		if errors.Is(err, daemon.ErrUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// runOnline drives the full daemon stack over loopback UDP in
// deterministic lockstep and prints the Figure 11 summary.
func runOnline(policy string, quiet bool, machines int, duration time.Duration, seed int64, fl daemon.Flags) error {
	// online.Run is the base policy, prints no timeline and takes no
	// pprof switch — the run is over in a second of wall time — so say
	// so instead of dropping a flag it cannot act on.
	if fl.Pprof || quiet || policy != "base" {
		return fmt.Errorf("%w: -pprof, -quiet and a -policy other than base are not available with -online", daemon.ErrUsage)
	}
	rules, err := alert.LoadRules(fl.Alerts)
	if err != nil {
		return fmt.Errorf("%w: -alerts: %w", daemon.ErrUsage, err)
	}
	start := time.Now()
	res, err := online.Run(online.Config{
		Machines:       machines,
		Seed:           seed,
		Duration:       duration,
		Script:         online.Fig11Script,
		CtlAddr:        fl.Ctl,
		Trace:          fl.TraceSpans,
		Record:         fl.Record,
		RecordMaxBytes: fl.RecordMaxBytes,
		Alerts:         rules,
	})
	if err != nil {
		return err
	}
	wall := time.Since(start)
	fmt.Printf("online: policy=base machines=%d duration=%v wall=%v (%.0fx warp)\n",
		machines, duration, wall.Round(time.Millisecond), duration.Seconds()/wall.Seconds())
	fmt.Printf("requests: arrived=%d completed=%d dropped=%d (%.2f%%)\n",
		res.Totals.Arrived, res.Totals.Completed, res.Totals.Dropped, 100*res.Totals.DropRate())
	for _, m := range res.Machines {
		fmt.Printf("%s: max cpu %.1fC, %d weight adjustments\n", m, float64(res.MaxCPUTemp[m]), res.Adjustments[m])
	}
	fmt.Printf("daemons: %d solver steps (%d missed ticks), %d util updates, %d sensor reads\n",
		res.SolverSteps, res.MissedTicks, res.UtilUpdates, res.SensorReads)
	if len(res.Events) > 0 {
		fmt.Printf("thermal events: %d (first: %s)\n", len(res.Events), res.Events[0])
	}
	if len(res.Spans) > 0 {
		traces := map[uint64]bool{}
		for _, s := range res.Spans {
			if s.Kind == causal.KindEmergency {
				traces[s.Trace] = true
			}
		}
		fmt.Printf("causal spans: %d (%d emergency traces)\n", len(res.Spans), len(traces))
	}
	printAlerts(res.Alerts)
	if res.RecordPath != "" {
		fmt.Printf("recorded to %s (%d drops); verify with: mercury-replay -log %s\n",
			res.RecordPath, res.RecordDrops, res.RecordPath)
	}
	return nil
}

func run(policy string, machines int, duration time.Duration, seed int64, quiet bool, fl daemon.Flags) error {
	sim, err := experiments.NewSim(machines, seed, duration)
	if err != nil {
		return err
	}
	// The paper's emergencies: machine1 inlet to 38.6C, machine3 to
	// 35.6C at t=480s, lasting the whole run.
	script, err := fiddle.ParseScript(online.Fig11Script)
	if err != nil {
		return err
	}
	sim.Fiddle = script.Schedule()

	// The stack shares the sim's virtual clock, so event, span and
	// capture timestamps all land on emulated time.
	st, err := daemon.Open(daemon.Config{Flags: fl, Node: "freon", Clock: sim.Clock})
	if err != nil {
		return err
	}
	defer st.CloseAndReport("freon")

	var activeFn func() int
	cfg := freon.Config{TwoStage: policy == "twostage", Events: st.Events, Tracer: st.Tracer}
	names := sim.Cluster.Machines()
	switch policy {
	case "base", "twostage":
		sim.Policy, err = freon.New(names, sim.Solver, sim.Bal, sim.Power(), cfg)
	case "ec":
		regions := map[string]int{}
		for i, m := range names {
			regions[m] = i % 2
		}
		var ec *freon.EC
		ec, err = freon.NewEC(names, sim.Solver, sim.Solver, sim.Bal, sim.Power(),
			freon.ECConfig{Config: cfg, Regions: regions})
		sim.Policy, activeFn = ec, ec.ActiveCount
	case "traditional":
		sim.Policy, err = freon.NewTraditional(names, sim.Solver, sim.Bal, sim.Power(), cfg)
	case "none":
		// No management: temperatures go where they go.
	default:
		return fmt.Errorf("unknown policy %q", policy)
	}
	if err != nil {
		return err
	}

	// Alerting over the in-process rig: the loop evaluates the engine
	// after each step, before the policy, as it does for -online.
	ms, ns := sim.Solver.Probes()
	if err := st.Watch(daemon.Watch{
		Step:   time.Second,
		Probes: daemon.ThermalProbes(ms, ns),
		Fill:   sim.Solver.ReadAllTemps,
	}); err != nil {
		return err
	}
	sim.Watch(st.Alerts)

	var ctlOpts []ctl.Option
	if p := sim.Policy; p != nil {
		ctlOpts = append(ctlOpts, ctl.WithState(func() any { return p.StateSnapshot() }))
	}
	bound, err := st.Serve(ctlOpts...)
	if err != nil {
		return err
	}
	if bound != "" {
		fmt.Printf("freon: control plane on http://%s\n", bound)
	}

	if !quiet {
		sim.OnSecond = func(sec int, tick webcluster.Tick) error {
			if (sec+1)%60 != 0 {
				return nil
			}
			fmt.Printf("t=%5ds", sec+1)
			for i, m := range sim.Cluster.Machines() {
				temp, err := sim.Solver.Temperature(m, model.NodeCPU)
				if err != nil {
					return err
				}
				fmt.Printf("  %s: %5.1fC %3.0f%%", m, float64(temp), tick.PerServer[i].CPUUtil.Percent())
			}
			if activeFn != nil {
				fmt.Printf("  active=%d", activeFn())
			}
			t := sim.Cluster.Totals()
			fmt.Printf("  dropped=%d\n", t.Dropped)
			return nil
		}
	}

	if err := sim.Run(duration); err != nil {
		return err
	}
	t := sim.Cluster.Totals()
	fmt.Printf("\npolicy=%s machines=%d duration=%v\n", policy, machines, duration)
	fmt.Printf("requests: arrived=%d completed=%d dropped=%d (%.2f%%)\n",
		t.Arrived, t.Completed, t.Dropped, 100*t.DropRate())
	fmt.Printf("energy: %.0f kJ\n", float64(sim.Solver.TotalEnergy())/1000)
	printAlerts(st.Alerts.Timeline())
	return nil
}

// printAlerts summarizes an alert timeline, if there is one.
func printAlerts(timeline []telemetry.Event) {
	if len(timeline) == 0 {
		return
	}
	firing := 0
	for _, e := range timeline {
		if e.Type == telemetry.EvAlertFiring {
			firing++
		}
	}
	fmt.Printf("alerts: %d transitions (%d firing edges; first: %s)\n", len(timeline), firing, timeline[0])
}
