// Command monitord is Mercury's monitoring daemon: it samples this
// machine's CPU, disk, and network utilizations from /proc and reports
// them to the solver daemon once per interval in 128-byte UDP
// datagrams (Section 2.3).
//
//	monitord -machine machine1 -solver 10.0.0.5:8367
//
// A synthetic mode replaces /proc for tests and demos:
//
//	monitord -machine machine1 -solver 127.0.0.1:8367 -synthetic-cpu 0.7
//
// -warp decouples the reporting cadence from wall time (emulated
// seconds per wall second; see docs/virtual-time.md). -ctl starts an
// HTTP control plane with /healthz, /metrics, and /state (see
// docs/observability.md):
//
//	monitord -machine machine1 -solver 127.0.0.1:8367 -warp 100 -ctl 127.0.0.1:9368
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/ctl"
	"github.com/darklab/mercury/internal/daemon"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/monitord"
	"github.com/darklab/mercury/internal/procfs"
	"github.com/darklab/mercury/internal/units"
)

func main() {
	var (
		machine  = flag.String("machine", "", "machine name in the solver's model (required)")
		solver   = flag.String("solver", "127.0.0.1:8367", "solver daemon UDP address")
		interval = flag.Duration("interval", time.Second, "sampling interval")
		procRoot = flag.String("proc", "/proc", "proc filesystem root")
		disk     = flag.String("disk", "", "disk device to watch (default: auto-detect)")
		nic      = flag.String("nic", "", "network interface to watch (default: none)")
		nicCap   = flag.Float64("nic-capacity", 125e6, "NIC capacity in bytes/second")
		synCPU   = flag.Float64("synthetic-cpu", -1, "fixed synthetic CPU utilization in [0,1] (disables /proc)")
		synDisk  = flag.Float64("synthetic-disk", 0, "fixed synthetic disk utilization (with -synthetic-cpu)")
		warp     = flag.Float64("warp", 0, "virtual-time warp factor: emulated seconds per wall second (0 = real time)")
		fl       daemon.Flags
	)
	fl.Register(flag.CommandLine)
	flag.Parse()
	if *machine == "" {
		fmt.Fprintln(os.Stderr, "monitord: -machine is required")
		os.Exit(2)
	}
	// monitord's only recordable stream besides alert transitions is
	// its causal sample spans, so -record rides on -trace-spans.
	if fl.Record != "" && !fl.TraceSpans {
		fmt.Fprintln(os.Stderr, "monitord: -record requires -trace-spans")
		os.Exit(2)
	}
	var sampler procfs.Sampler
	if *synCPU >= 0 {
		syn := procfs.NewSynthetic(model.UtilCPU, model.UtilDisk)
		syn.Set(model.UtilCPU, units.Fraction(*synCPU))
		syn.Set(model.UtilDisk, units.Fraction(*synDisk))
		sampler = syn
	} else {
		sampler = procfs.New(procfs.Config{
			Root: *procRoot, Disk: *disk, NIC: *nic, NICCapacity: *nicCap,
		})
	}
	if err := run(fl, *machine, *solver, *interval, *warp, sampler); err != nil {
		fmt.Fprintln(os.Stderr, "monitord:", err)
		if errors.Is(err, daemon.ErrUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(fl daemon.Flags, machine, solver string, interval time.Duration, warp float64, sampler procfs.Sampler) error {
	var clk clock.Clock
	if warp > 0 {
		vclk := clock.NewVirtual()
		vclk.StartWarp(warp)
		defer vclk.StopWarp()
		clk = vclk
	}
	st, err := daemon.Open(daemon.Config{Flags: fl, Node: "monitord-" + machine, Clock: clk})
	if err != nil {
		return err
	}
	defer st.CloseAndReport("monitord")
	d, err := monitord.New(monitord.Config{
		Machine:    machine,
		Sampler:    sampler,
		SolverAddr: solver,
		Interval:   interval,
		Clock:      st.Clock,
		Registry:   st.Registry,
		Tracer:     st.Tracer,
	})
	if err != nil {
		return err
	}
	defer d.Close()
	// Alerting: monitord owns no temperatures, so the engine runs
	// health-only — send errors surface through the missed-ticks slot,
	// recorder drops through record-drops. Evaluated once per sampling
	// interval on the daemon's clock.
	if err := st.Watch(daemon.Watch{
		Step:   interval,
		Health: func() (uint64, uint64) { return d.Errors(), 0 },
	}); err != nil {
		return err
	}
	bound, err := st.Serve(ctl.WithState(func() any { return d.StateSnapshot() }))
	if err != nil {
		return err
	}
	if bound != "" {
		fmt.Printf("monitord: control plane on http://%s\n", bound)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if eng := st.Alerts; eng != nil {
		go func() {
			tick := st.Clock.NewTicker(interval)
			defer tick.Stop()
			var n uint64
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C():
					n++
					eng.EvalTick(n)
				}
			}
		}()
	}
	fmt.Printf("monitord: reporting %s to %s every %v\n", machine, solver, interval)
	if err := d.Run(ctx); err != nil && ctx.Err() == nil {
		return err
	}
	fmt.Printf("monitord: sent %d updates\n", d.Sent())
	return nil
}
