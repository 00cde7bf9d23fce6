// Package online boots Mercury's full daemon stack — solverd, one
// monitord per machine, and Freon's tempd/admd — over loopback UDP on
// a shared virtual clock, and drives it in deterministic lockstep at
// warp speed. It is the end-to-end counterpart of experiments.Sim:
// the same per-second ordering (fiddle, cluster tick, utilization
// updates, solver step, Freon poll, Freon period), but with every
// interaction crossing the wire the way a live deployment's would.
//
// The harness is one goroutine calling each layer's tick body in turn;
// the virtual clock only supplies the stamps:
//
//	t = k+0.5   second k's fiddle ops and cluster tick
//	t = k+1.0   SampleOnce on every monitord, then the one wait: the
//	            harness parks in every shard's AwaitUtilUpdates until
//	            the report that completes the second wakes it
//	t = k+1.25  Tick on every shard in order, then the alert engine
//	t = k+1.5   Freon's TickPoll and TickPeriod when due, poll first
//
// Every other step is done when its call returns, so two runs with the
// same seed produce bit-identical trajectories. Only the request trace
// is produced beside the harness, on a goroutine that reads no clock
// and emits nothing.
package online

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/darklab/mercury/internal/alert"
	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/ctl"
	"github.com/darklab/mercury/internal/daemon"
	"github.com/darklab/mercury/internal/fiddle"
	"github.com/darklab/mercury/internal/freon"
	"github.com/darklab/mercury/internal/lvs"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/monitord"
	"github.com/darklab/mercury/internal/procfs"
	"github.com/darklab/mercury/internal/sensor"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/solverd"
	"github.com/darklab/mercury/internal/surrogate"
	"github.com/darklab/mercury/internal/telemetry"
	"github.com/darklab/mercury/internal/units"
	"github.com/darklab/mercury/internal/webcluster"
	"github.com/darklab/mercury/internal/wire"
	"github.com/darklab/mercury/internal/workload"
)

// utilGuard bounds, in real time, the wait for one second's
// utilization reports: only a lost datagram takes that long.
const utilGuard = 30 * time.Second

// sampleSecs is the temperature sampling period in emulated seconds,
// matching the experiment harness's series.
const sampleSecs = 10

// Fig11Script is the Section 5 emergency: at 480 s machine1's inlet
// rises to 38.6 C and machine3's to 35.6 C for the rest of the run.
const Fig11Script = `#!/bin/bash
sleep 480
fiddle machine1 temperature inlet 38.6
fiddle machine3 temperature inlet 35.6
`

// Config parameterizes an online run.
type Config struct {
	// Machines in the cluster; default 4, the paper's rig.
	Machines int
	// Seed for the workload trace; default 1, the Section 5 seed.
	Seed int64
	// Duration of emulated time; default 2000s, the Figure 11 span.
	Duration time.Duration
	// Script is a fiddle script scheduling emergencies (e.g.
	// Fig11Script); empty means no emergency.
	Script string
	// Freon configures the thermal policy; the zero value is the
	// paper's defaults.
	Freon freon.Config
	// CtlAddr, when non-empty, serves the run's control plane there
	// ("127.0.0.1:0" picks a free port; see Result.CtlAddr). The run's
	// metrics, event log, solver state, and fiddle path are all
	// reachable over HTTP while the lockstep loop executes, without
	// perturbing determinism — the control plane only reads.
	CtlAddr string
	// Trace turns on causal tracing: one tracer shared by every
	// daemon, stamped from the virtual clock, so the span set is
	// bit-identical across runs (Result.Spans, and /spans on the
	// control plane). Off by default — the hot paths then carry no
	// tracing cost beyond a nil check.
	Trace bool
	// Shards partitions the cluster by region across this many
	// cooperating solverd daemons, each stepping only its machines and
	// exchanging boundary exhausts over loopback UDP in lockstep.
	// Utilization updates, sensor reads, and machine-targeted fiddle
	// ops are routed to the owning shard; source setpoints are
	// broadcast to every shard. A sharded run is bit-identical to the
	// single-daemon run — temperatures, events, and canonical spans.
	// Default (0 or 1) is the classic single solverd.
	Shards int
	// Workers is each solver's worker-pool size (solver.Config.Workers;
	// 0 = one worker per core, capped by machine count).
	Workers int
	// Batch groups each shard's machines into MsgUtilBatch datagrams —
	// one batched monitord per shard in place of one daemon per machine
	// (~16x fewer datagrams). Temperatures and events are unchanged;
	// the span SHAPE differs from per-machine monitords (one sample
	// span per shard instead of per machine), so the trace goldens pin
	// the default unbatched path.
	Batch bool
	// Surrogate attaches a what-if surrogate to the solver daemon:
	// every tick records the run's trajectory (a passive,
	// allocation-free observation that cannot change temperatures,
	// events, or spans — the goldens pin this), and Result.Surrogate
	// reports its counters. Single-shard runs only: a shard sees just
	// its region's inputs, so a local fit cannot answer room-wide
	// questions.
	Surrogate bool
	// Alerts, when non-nil, attaches the deterministic alerting/SLO
	// engine (internal/alert) to the run: the harness evaluates the
	// rule set once per emulated second, right after the solver step,
	// over the full cluster's post-step temperatures — identically for
	// single-daemon and sharded runs. Transitions land in the shared
	// event log and in Result.Alerts; when CtlAddr is set they stream
	// at /alerts; when Record is set they persist as ALT records.
	// alert.Defaults() is the paper-tuned rule set.
	Alerts []alert.Rule
	// Record, when non-empty, is a directory receiving a durable
	// binary flight-recorder capture of the run
	// (<Record>/online.mrl): every event, span, sampled temperature
	// row, applied utilization update, and fiddle op, replayable at
	// warp speed by cmd/mercury-replay (see docs/recordlog.md).
	// Single-shard runs only. Result.RecordPath reports the file.
	Record string
	// RecordMaxBytes rotates the capture into numbered segments
	// (online.mrl, online.1.mrl, …) once a segment exceeds this many
	// bytes; recordlog.ReadLog stitches them back together. 0 keeps
	// one unbounded file.
	RecordMaxBytes int64
}

func (c Config) withDefaults() Config {
	if c.Machines <= 0 {
		c.Machines = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Duration <= 0 {
		c.Duration = 2000 * time.Second
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	return c
}

// Sample is one temperature observation: CPU temperatures per machine,
// in machine order, taken after the step for second Sec completed.
type Sample struct {
	Sec   int
	Temps []units.Celsius
}

// Result summarizes an online run with the same headline metrics the
// offline Figure 11 experiment reports.
type Result struct {
	Machines []string
	Samples  []Sample
	Totals   webcluster.Totals
	// MaxCPUTemp is the per-machine maximum over Samples.
	MaxCPUTemp map[string]units.Celsius
	// Adjustments counts admd weight adjustments per machine.
	Adjustments map[string]int
	// ServersShutDown counts red-line shutdowns (0 in Figure 11).
	ServersShutDown int

	// Daemon-side counters, for sanity checks. In sharded runs
	// SolverSteps is shard 0's count (every shard steps in lockstep);
	// the traffic counters are summed across shards.
	SolverSteps uint64
	MissedTicks uint64
	UtilUpdates uint64
	SensorReads uint64
	FreonPolls  uint64
	FreonPeriod uint64
	// UtilBatches counts utilization datagrams (a per-machine monitord
	// sends a batch of one), BoundaryExchanges the boundary datagrams
	// staged between shards.
	UtilBatches       uint64
	BoundaryExchanges uint64

	// Events is the run's thermal event log, oldest first. Stamped
	// from the shared virtual clock, it is bit-identical across runs
	// with the same configuration (the Figure 11 golden test pins it).
	Events []telemetry.Event
	// Spans is the run's causal-span set in canonical order (nil
	// unless Config.Trace). Like Events it is bit-identical across
	// runs — the Figure 11 trace golden pins it.
	Spans []causal.Span
	// Surrogate reports the what-if surrogate's counters (nil unless
	// Config.Surrogate).
	Surrogate *surrogate.FitStats
	// Alerts is the alert-transition timeline, oldest first (nil
	// unless Config.Alerts). Stamped on exact tick boundaries of the
	// virtual clock, it is bit-identical across runs, shard counts,
	// and record/replay (the Figure 11 alerts golden pins it).
	Alerts []telemetry.Event
	// RecordPath is the flight-recorder file written when
	// Config.Record is set; RecordDrops counts records lost to a full
	// recorder ring (0 on a healthy capture).
	RecordPath  string
	RecordDrops uint64
	// CtlAddr is the control plane's bound address ("" when disabled).
	CtlAddr string
}

// Run boots the stack, drives it for cfg.Duration of virtual time, and
// tears it down.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Record != "" && cfg.Shards > 1 {
		return nil, fmt.Errorf("online: Record requires a single shard, got %d", cfg.Shards)
	}
	if err := errors.Join(
		wholeSeconds("Freon.ConnPoll", cfg.Freon.ConnPoll),
		wholeSeconds("Freon.Period", cfg.Freon.Period),
	); err != nil {
		return nil, err
	}
	clk := clock.NewVirtual()

	// Shared observability: one stack for the whole rig, stamped from
	// the virtual clock so every feed is deterministic, and opened
	// before the clock first advances so the capture's epoch is virtual
	// t=0. The rings are sized so a full 2000 s Figure 11 run — about
	// nine spans per emulated second plus the emergency traffic — drops
	// nothing from Result.Events or Result.Spans.
	st, err := daemon.Open(daemon.Config{
		Flags: daemon.Flags{
			Ctl:            cfg.CtlAddr,
			TraceSpans:     cfg.Trace,
			Record:         cfg.Record,
			RecordMaxBytes: cfg.RecordMaxBytes,
		},
		Node:     "online",
		Clock:    clk,
		Rules:    cfg.Alerts,
		EventCap: 8192,
		SpanCap:  1 << 15,
	})
	if err != nil {
		return nil, fmt.Errorf("online: %w", err)
	}
	defer st.Close()
	events, tracer := st.Events, st.Tracer

	// Thermal model + solvers behind the UDP daemons: one solverd owns
	// the whole room, or cfg.Shards of them each own one region of it.
	// Every shard compiles the full cluster, so global machine indices
	// and initial temperatures agree across daemons.
	cm, err := model.DefaultCluster("room", cfg.Machines)
	if err != nil {
		return nil, err
	}
	var regions [][]string
	if cfg.Shards > 1 {
		if cfg.Surrogate {
			return nil, fmt.Errorf("online: Surrogate requires a single shard, got %d", cfg.Shards)
		}
		if regions, err = solver.PartitionRegions(cm, cfg.Shards); err != nil {
			return nil, err
		}
	}
	var surro *surrogate.Model
	servers := make([]*solverd.Server, cfg.Shards)
	for i := range servers {
		sol, err := solver.New(cm, solver.Config{
			Workers:     cfg.Workers,
			Regions:     regions,
			RegionIndex: i,
		})
		if err != nil {
			return nil, err
		}
		// One registry: metric names are unique per registry, so only
		// shard 0 exports solver metrics. The event log and tracer are
		// shared — their records are keyed by content, not by daemon.
		solverOpts := []solverd.Option{solverd.WithTracer(tracer)}
		if i == 0 {
			solverOpts = append(solverOpts, solverd.WithTelemetry(st.Registry, events))
		} else {
			solverOpts = append(solverOpts, solverd.WithTelemetry(nil, events))
		}
		if cfg.Surrogate && i == 0 {
			if surro, err = surrogate.New(sol, surrogate.Config{}); err != nil {
				return nil, err
			}
			solverOpts = append(solverOpts, solverd.WithSurrogate(surro))
		}
		// A nil *recordlog.Writer in the Recorder interface would be a
		// non-nil recorder that panics in Listen. Record implies one shard.
		if st.Recorder != nil {
			solverOpts = append(solverOpts, solverd.WithRecorder(st.Recorder))
		}
		if servers[i], err = solverd.Listen("127.0.0.1:0", sol, solverOpts...); err != nil {
			return nil, err
		}
		defer servers[i].Close()
	}
	if cfg.Shards > 1 {
		addrs := make(map[int]string, cfg.Shards)
		for i, s := range servers {
			addrs[i] = s.Addr().String()
		}
		for _, s := range servers {
			if err := s.SetPeers(addrs); err != nil {
				return nil, err
			}
		}
	}
	for _, s := range servers {
		go s.Serve()
	}
	srv := servers[0]

	// Cluster machine names, in the canonical cluster order everything
	// below indexes by. shardNames[i] is the machines shard i owns
	// (everything, for a single shard), in cluster order, and owner the
	// inverse: the index of the shard that steps a machine.
	names := make([]string, cfg.Machines)
	for i := range names {
		names[i] = fmt.Sprintf("machine%d", i+1)
	}
	shardNames := [][]string{names}
	if cfg.Shards > 1 {
		shardNames = regions
	}
	owner := make(map[string]int, cfg.Machines)
	for i, ms := range shardNames {
		for _, m := range ms {
			owner[m] = i
		}
	}

	// route applies a fiddle op the way the UDP path routes it: source
	// setpoints are global state every shard must apply; everything
	// else targets one machine and goes to its owner.
	route := func(op *wire.FiddleOp, apply func(shard int, op *wire.FiddleOp) error) error {
		if op.Op == wire.OpSetSourceTemp || len(op.Strings) == 0 {
			for i := range servers {
				if err := apply(i, op); err != nil {
					return err
				}
			}
			return nil
		}
		// A machine nobody owns goes to shard 0, which says so.
		return apply(owner[op.Strings[0]], op)
	}

	// Effective Freon component table; the alert engine derives each
	// probe's Low/High/RedLine from it, and the Freon section below
	// monitors exactly these components.
	comps := cfg.Freon.Components
	if comps == nil {
		comps = freon.DefaultComponents()
	}

	// Alerting: one engine for the whole room, driven from the harness
	// goroutine after every solver step, never from the daemons — the
	// evaluation order (and so the transition timeline) is then the
	// same no matter how many shards step the model.
	if cfg.Alerts != nil {
		probes, fill := alertProbes(servers, names, comps)
		if err := st.Watch(daemon.Watch{
			Step:   time.Second,
			Probes: probes,
			Fill:   fill,
			Health: func() (missed, boundary uint64) {
				for _, s := range servers {
					missed += s.Stats().MissedTicks.Load()
					boundary += s.Stats().BoundaryMissed.Load()
				}
				return missed, boundary
			},
			Surrogate: surro,
		}); err != nil {
			return nil, fmt.Errorf("online: %w", err)
		}
	}
	eng := st.Alerts

	// The control plane only reads, apart from /fiddle, which applies
	// ops directly on the owning servers.
	ctlAddr, err := st.Serve(
		ctl.WithState(func() any { return srv.State() }),
		ctl.WithFiddle(func(op *wire.FiddleOp) error {
			return route(op, func(i int, op *wire.FiddleOp) error { return servers[i].ApplyFiddle(op) })
		}),
	)
	if err != nil {
		return nil, err
	}

	// Emulated web cluster and workload, exactly as experiments.NewSim
	// builds them.
	bal := lvs.New()
	wc, err := webcluster.New(bal, names, webcluster.Config{})
	if err != nil {
		return nil, err
	}
	peak := float64(cfg.Machines) * 0.7 / webcluster.Config{}.MeanCPUPerRequest(0.3)

	// The request trace runs ahead of the loop on its own goroutine: it
	// depends on nothing the loop computes, so it is drawn on another
	// core while the stack boots and steps. Each second goes out as a
	// capped slice of one growing trace, and later appends touch only
	// elements past every slice sent. The channel holds every second, so
	// the producer never blocks and, should Run return early, simply
	// finishes. It reads no clock and emits nothing.
	secs := int(cfg.Duration / time.Second)
	arrivals := make(chan []workload.Request, secs)
	go func() {
		gen := workload.NewWebGen(workload.WebConfig{Duration: cfg.Duration, PeakRPS: peak, Seed: cfg.Seed})
		out := make([]workload.Request, 0, gen.SizeHint())
		for sec := 1; sec <= secs; sec++ {
			first := len(out)
			out = gen.Next(out, time.Duration(sec)*time.Second)
			arrivals <- out[first:len(out):len(out)]
		}
	}()

	var ops []fiddle.TimedOp
	if cfg.Script != "" {
		script, err := fiddle.ParseScript(cfg.Script)
		if err != nil {
			return nil, err
		}
		ops = script.Schedule()
	}

	// Monitords, each sampling a synthetic procfs that the harness
	// refreshes from the cluster's per-tick utilizations: one daemon
	// per machine reporting to the machine's owner shard, or — with
	// Batch — one daemon per shard reporting all its machines in one
	// MsgUtilBatch datagram. None runs a sampling loop: the harness
	// calls SampleOnce.
	synths := make(map[string]*procfs.Synthetic, cfg.Machines)
	for _, m := range names {
		synths[m] = procfs.NewSynthetic(model.UtilCPU, model.UtilDisk)
	}
	var monCfgs []monitord.Config
	if cfg.Batch {
		for i, s := range servers {
			batch := make([]monitord.BatchMachine, len(shardNames[i]))
			for j, m := range shardNames[i] {
				batch[j] = monitord.BatchMachine{Machine: m, Sampler: synths[m]}
			}
			monCfgs = append(monCfgs, monitord.Config{Machine: fmt.Sprintf("shard%d", i), Batch: batch, SolverAddr: s.Addr().String()})
		}
	} else {
		for _, m := range names {
			monCfgs = append(monCfgs, monitord.Config{Machine: m, Sampler: synths[m], SolverAddr: servers[owner[m]].Addr().String()})
		}
	}
	mons := make([]*monitord.Daemon, len(monCfgs))
	for i, mc := range monCfgs {
		mc.Clock, mc.Tracer = clk, tracer
		if mons[i], err = monitord.New(mc); err != nil {
			return nil, err
		}
		defer mons[i].Close()
	}

	// The loop's first cluster tick happens at t = 0.5.
	clk.Advance(500 * time.Millisecond)

	// Freon, reading temperatures through the emulated sensor library
	// and actuating the balancer locally, as admd does on the LVS
	// machine. One sensor reader per shard serves every read: Freon's
	// (a machine's components in one round trip, node by node while the
	// machine's emergency is traced) and the harness's samples.
	sens := udpSensors{readers: make([]*sensor.Reader, cfg.Shards), owner: owner}
	for i, s := range servers {
		r, err := dialSensors(s.Addr().String(), sensor.Options{Clock: clk})
		if err != nil {
			return nil, err
		}
		defer r.Close()
		r.SetTracer(tracer)
		sens.readers[i] = r
	}
	// One fiddle client per shard, routed like the control plane's.
	fcs := make([]*fiddle.Client, cfg.Shards)
	for i, s := range servers {
		if fcs[i], err = fiddle.DialClock(s.Addr().String(), 0, 0, clk); err != nil {
			return nil, err
		}
		defer fcs[i].Close()
	}
	routeOp := func(op *wire.FiddleOp) error {
		return route(op, func(i int, op *wire.FiddleOp) error { return fcs[i].Apply(op) })
	}
	cfg.Freon.Events = events
	cfg.Freon.Tracer = tracer
	fr, err := freon.New(names, &sens, bal, power{wc: wc, apply: routeOp}, cfg.Freon)
	if err != nil {
		return nil, err
	}
	var polls, periods atomic.Uint64
	if st.Registry != nil {
		st.Registry.CounterFunc("mercury_freon_polls_total", "completed connection-statistics polls",
			func() float64 { return float64(polls.Load()) })
		st.Registry.CounterFunc("mercury_freon_periods_total", "completed observation periods",
			func() float64 { return float64(periods.Load()) })
	}

	cpus := newCPUProbes(names, shardNames)
	pollSecs := int(fr.Config().ConnPoll / time.Second)
	periodSecs := int(fr.Config().Period / time.Second)

	res := &Result{Machines: names, MaxCPUTemp: map[string]units.Celsius{}, Adjustments: map[string]int{}}
	opIdx := 0
	for sec := 0; sec < secs; sec++ {
		// The harness's work for second sec happens at t = sec+0.5,
		// before any daemon has observed the second.
		now := time.Duration(sec) * time.Second
		for opIdx < len(ops) && ops[opIdx].At <= now {
			if err := routeOp(ops[opIdx].Op); err != nil {
				return nil, fmt.Errorf("online: fiddle at %v: %w", now, err)
			}
			opIdx++
		}
		tick := wc.TickSecond(<-arrivals)
		for i, m := range names {
			st, syn := tick.PerServer[i], synths[m]
			syn.Set(model.UtilCPU, st.CPUUtil)
			syn.Set(model.UtilDisk, st.DiskUtil)
		}

		// t -> sec+1.0: the monitords report the second's utilizations.
		// A datagram inside the loopback socket is visible to nobody, so
		// here alone the harness waits: it parks until every shard has
		// applied its own machines' reports, woken by the last of them.
		clk.Advance(500 * time.Millisecond)
		for _, d := range mons {
			if err := d.SampleOnce(); err != nil {
				return nil, fmt.Errorf("online: emulated second %d: %w", sec, err)
			}
		}
		for i, s := range servers {
			if err := s.AwaitUtilUpdates(uint64(len(shardNames[i])*(sec+1)), utilGuard); err != nil {
				return nil, fmt.Errorf("online: timed out waiting for utilization updates at emulated second %d: %w", sec, err)
			}
		}

		// t -> sec+1.25: every shard consumes them and steps. Tick sec+1
		// needs only its peers' tick-sec exhausts, published a second ago,
		// so stepping the shards one after another cannot deadlock.
		clk.Advance(250 * time.Millisecond)
		for i, s := range servers {
			if !s.Tick() {
				return nil, fmt.Errorf("online: emulated second %d: shard %d closed", sec, i)
			}
		}

		// Still at t = sec+1.25, before Freon: the alert engine evaluates
		// tick sec+1 over the post-step temperatures, stamping transitions
		// at exactly (sec+1)s. Predictive rules therefore see — and can
		// fire on — the same temperatures Freon is about to react to.
		eng.EvalTick(uint64(sec + 1))

		// t -> sec+1.5: Freon observes the post-step temperatures, poll
		// before period.
		clk.Advance(250 * time.Millisecond)
		if (sec+1)%pollSecs == 0 {
			if err := fr.TickPoll(); err != nil {
				return nil, fmt.Errorf("online: emulated second %d: freon poll: %w", sec, err)
			}
			polls.Add(1)
		}
		if (sec+1)%periodSecs == 0 {
			if err := fr.TickPeriod(); err != nil {
				return nil, fmt.Errorf("online: emulated second %d: freon period: %w", sec, err)
			}
			periods.Add(1)
		}

		if (sec+1)%sampleSecs == 0 {
			sample := Sample{Sec: sec, Temps: make([]units.Celsius, len(names))}
			if err := cpus.read(sens.readers, sample.Temps); err != nil {
				return nil, err
			}
			for i, m := range names {
				if temp := sample.Temps[i]; temp > res.MaxCPUTemp[m] {
					res.MaxCPUTemp[m] = temp
				}
			}
			res.Samples = append(res.Samples, sample)
		}

		// Owing nothing to the wall clock, let the recorder's drain keep up.
		if st.Recorder != nil {
			st.Recorder.CatchUp()
		}
	}

	res.Totals = wc.Totals()
	for _, m := range names {
		res.Adjustments[m] = fr.Admd().Adjustments(m)
	}
	res.ServersShutDown = fr.OfflineCount()
	res.SolverSteps = srv.Stats().SolverSteps.Load()
	for _, s := range servers {
		res.MissedTicks += s.Stats().MissedTicks.Load()
		res.UtilUpdates += s.Stats().UtilUpdates.Load()
		res.SensorReads += s.Stats().SensorReads.Load()
		res.UtilBatches += s.Stats().UtilBatches.Load()
		res.BoundaryExchanges += s.Stats().BoundaryIn.Load()
	}
	res.FreonPolls = polls.Load()
	res.FreonPeriod = periods.Load()
	res.Events = events.Since(0)
	if tracer != nil {
		res.Spans = tracer.Canonical()
	}
	if surro != nil {
		st := surro.Stats()
		res.Surrogate = &st
	}
	if eng != nil {
		res.Alerts = eng.Timeline()
	}
	res.CtlAddr = ctlAddr
	// Every emitter is quiescent, so Close flushes a complete capture.
	if res.RecordPath, res.RecordDrops, err = st.Close(); err != nil {
		return nil, fmt.Errorf("online: flight recorder: %w", err)
	}
	return res, nil
}

// alertProbes builds the canonical full-cluster probe list — machines
// in cluster order, each machine's nodes in its compiled node order,
// thresholds resolved from the Freon component table — plus an
// allocation-free Fill that scatters every shard's ReadAllTemps into
// that order. With one shard the solver's own Probes order already is
// canonical, so Fill is ReadAllTemps itself; with several, each shard
// reports only its owned region and the columns are stitched back
// into cluster order, so the engine sees byte-identical input either
// way.
func alertProbes(servers []*solverd.Server, names []string, comps []freon.ComponentSpec) ([]alert.Probe, func([]float64) int) {
	if len(servers) == 1 {
		sol := servers[0].Solver()
		ms, ns := sol.Probes()
		return daemon.ThermalProbes(ms, ns, comps), sol.ReadAllTemps
	}
	type col struct{ shard, idx int }
	var ms, ns []string
	var srcs []col
	scratch := make([][]float64, len(servers))
	shardMs := make([][]string, len(servers))
	shardNs := make([][]string, len(servers))
	for s, srv := range servers {
		shardMs[s], shardNs[s] = srv.Solver().Probes()
		scratch[s] = make([]float64, len(shardMs[s]))
	}
	for _, m := range names {
		for s := range servers {
			for i, pm := range shardMs[s] {
				if pm != m {
					continue
				}
				ms = append(ms, m)
				ns = append(ns, shardNs[s][i])
				srcs = append(srcs, col{shard: s, idx: i})
			}
		}
	}
	fill := func(dst []float64) int {
		for s := range servers {
			servers[s].Solver().ReadAllTemps(scratch[s])
		}
		n := len(srcs)
		if n > len(dst) {
			n = len(dst)
		}
		for i := 0; i < n; i++ {
			dst[i] = scratch[srcs[i].shard][srcs[i].idx]
		}
		return n
	}
	return daemon.ThermalProbes(ms, ns, comps), fill
}

// wholeSeconds rejects a Freon cadence the one-second lockstep tick
// cannot honour; zero or negative selects Freon's whole-second default.
func wholeSeconds(field string, d time.Duration) error {
	if d > 0 && d%time.Second != 0 {
		return fmt.Errorf("online: %s = %v is not a whole multiple of the 1s lockstep tick", field, d)
	}
	return nil
}

// dialSensors opens a shard's sensor reader; tests count the sockets
// a run opens through it.
var dialSensors = sensor.Dial

// udpSensors adapts the shards' sensor readers to freon.Sensors: every
// read is a UDP round trip to the machine's owner shard (shard 0, which
// says so, for a machine nobody owns).
type udpSensors struct {
	readers []*sensor.Reader
	owner   map[string]int
	probes  []sensor.Probe // MachineTemperatures' request scratch
}

func (u *udpSensors) Temperature(machine, node string) (units.Celsius, error) {
	return u.TemperatureCtx(causal.Context{}, machine, node)
}

// TemperatureCtx implements freon.ContextSensors: the trace context
// rides the sensor request so solverd's serving span joins the
// emergency's trace.
func (u *udpSensors) TemperatureCtx(tc causal.Context, machine, node string) (units.Celsius, error) {
	return u.readers[u.owner[machine]].ReadCtx(tc, machine, node)
}

// MachineTemperatures implements freon.MachineSensors: one round trip
// reads all of a machine's nodes.
func (u *udpSensors) MachineTemperatures(machine string, nodes []string, temps []units.Celsius) error {
	u.probes = u.probes[:0]
	for _, n := range nodes {
		u.probes = append(u.probes, sensor.Probe{Machine: machine, Node: n})
	}
	return u.readers[u.owner[machine]].ReadMany(u.probes, temps)
}

// cpuProbes is the harness's temperature sample: every machine's CPU,
// read with one ReadMany per shard and scattered into cluster order.
type cpuProbes struct {
	probes [][]sensor.Probe  // by shard, in the shard's machine order
	at     [][]int           // at[s][j]: probes[s][j]'s position in cluster order
	temps  [][]units.Celsius // by shard, the read's scratch
}

func newCPUProbes(names []string, shardNames [][]string) *cpuProbes {
	pos := make(map[string]int, len(names))
	for i, m := range names {
		pos[m] = i
	}
	c := &cpuProbes{}
	for _, ms := range shardNames {
		probes := make([]sensor.Probe, len(ms))
		at := make([]int, len(ms))
		for j, m := range ms {
			probes[j] = sensor.Probe{Machine: m, Node: model.NodeCPU}
			at[j] = pos[m]
		}
		c.probes = append(c.probes, probes)
		c.at = append(c.at, at)
		c.temps = append(c.temps, make([]units.Celsius, len(ms)))
	}
	return c
}

// read fills dst, in cluster order, from the shards' readers.
func (c *cpuProbes) read(readers []*sensor.Reader, dst []units.Celsius) error {
	for s, r := range readers {
		if err := r.ReadMany(c.probes[s], c.temps[s]); err != nil {
			return err
		}
		for j, t := range c.temps[s] {
			dst[c.at[s][j]] = t
		}
	}
	return nil
}

// power switches a machine off in the emulated web cluster directly
// (admd runs beside LVS) and in the thermal model through the fiddle
// protocol, routed to the machine's owner shard.
type power struct {
	wc    *webcluster.Cluster
	apply func(*wire.FiddleOp) error
}

func (p power) SetPower(machine string, on bool) error {
	if err := p.wc.SetPower(machine, on); err != nil {
		return err
	}
	v := 0.0
	if on {
		v = 1
	}
	return p.apply(&wire.FiddleOp{Op: wire.OpSetMachinePower, Strings: []string{machine}, Floats: []float64{v}})
}
