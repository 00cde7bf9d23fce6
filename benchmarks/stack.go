package main

import (
	"fmt"
	"path/filepath"
	"time"

	"github.com/darklab/mercury/internal/alert"
	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/fiddle"
	"github.com/darklab/mercury/internal/freon"
	"github.com/darklab/mercury/internal/lvs"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/monitord"
	"github.com/darklab/mercury/internal/online"
	"github.com/darklab/mercury/internal/procfs"
	"github.com/darklab/mercury/internal/recordlog"
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

// onlineSpec is one of the two online workloads: a room behind the
// full daemon stack, with or without the observers.
type onlineSpec struct {
	name      string
	machines  int
	duration  time.Duration
	script    string
	batch     bool
	observers bool // tracer, surrogate, alert engine, flight recorder
}

// runConfig is the spec as online.Run takes it — the untraced run.
func (sp onlineSpec) runConfig(seed int64, recordDir string) online.Config {
	cfg := online.Config{
		Machines: sp.machines,
		Duration: sp.duration,
		Script:   sp.script,
		Seed:     seed,
		Workers:  1,
		Batch:    sp.batch,
	}
	if sp.observers {
		cfg.Trace = true
		cfg.Surrogate = true
		cfg.Alerts = alert.Defaults()
		cfg.Record = recordDir
	}
	return cfg
}

func (sp onlineSpec) secs() int { return int(sp.duration / time.Second) }

// simStats is what a run simulated, in the shape online.Result reports
// it, so the ledger driver and online.Run hash to the same digest when
// they computed the same thing.
type simStats struct {
	samples []online.Sample
	events  []telemetry.Event
	alerts  []telemetry.Event
}

func statsOf(res *online.Result) simStats {
	return simStats{samples: res.Samples, events: res.Events, alerts: res.Alerts}
}

// tempDigest covers the temperature samples only; digest adds the
// event log and the alert timeline.
func (s simStats) tempDigest() string {
	d := newDigest()
	s.hashTemps(d)
	return d.sum()
}

func (s simStats) hashTemps(d *digest) {
	for _, smp := range s.samples {
		d.u64(uint64(smp.Sec))
		for _, t := range smp.Temps {
			d.f64(float64(t))
		}
	}
}

func (s simStats) digest() string {
	d := newDigest()
	s.hashTemps(d)
	for _, evs := range [][]telemetry.Event{s.events, s.alerts} {
		d.u64(uint64(len(evs)))
		for _, e := range evs {
			d.u64(uint64(e.At))
			d.str(string(e.Type))
			d.str(e.Machine)
			d.str(e.Node)
			d.f64(e.Value)
		}
	}
	return d.sum()
}

// stack is the online rig booted through the public constructors, in
// the order online.Run boots it (single solverd). It is used two ways:
// booted and torn down to measure set-up time, and driven second by
// second by the ledger driver for the traced run.
type stack struct {
	spec   onlineSpec
	dir    string // capture directory (observers only)
	clk    *clock.Virtual
	events *telemetry.EventLog
	tracer *causal.Tracer
	rec    *recordlog.Writer
	srv    *solverd.Server
	surro  *surrogate.Model
	eng    *alert.Engine
	bal    *lvs.Balancer
	wc     *webcluster.Cluster
	reqs   []workload.Request
	ops    []fiddle.TimedOp
	names  []string
	synths []*procfs.Synthetic
	mons   []*monitord.Daemon
	sens   *timedSensors
	fc     *fiddle.Client
	fr     *freon.Freon

	reqIdx, opIdx int
	requests      int64
	stats         simStats
	generateS     float64 // time spent in workload.GenerateWeb
	buildS        float64 // model build + solver.New
}

// timedSensors is the freon.Sensors the ledger hands Freon: the same
// per-(machine, node) UDP sensor clients online.Run uses, with a span
// around every round trip. It implements freon.ContextSensors so a
// traced Freon takes the same ReadCtx path it takes under online.Run.
type timedSensors struct {
	sensors map[string]map[string]*sensor.Sensor
	tr      *spanRec
	parent  int
	reads   int64
	errs    int64
}

func (t *timedSensors) Temperature(machine, node string) (units.Celsius, error) {
	return t.TemperatureCtx(causal.Context{}, machine, node)
}

func (t *timedSensors) TemperatureCtx(tc causal.Context, machine, node string) (units.Celsius, error) {
	s := t.sensors[machine][node]
	if s == nil {
		return 0, fmt.Errorf("no sensor open for %s/%s", machine, node)
	}
	sp := t.tr.begin("sensor.read", "sensor", t.parent)
	v, err := s.ReadCtx(tc)
	t.tr.end(sp)
	t.reads++
	if err != nil {
		t.errs++
	}
	return v, err
}

func (t *timedSensors) close() {
	for _, nodes := range t.sensors {
		for _, s := range nodes {
			s.Close()
		}
	}
}

// power mirrors online.Run's adapter: admd switches a machine in the
// web cluster directly and in the thermal model through fiddle.
type power struct {
	wc *webcluster.Cluster
	fc *fiddle.Client
}

func (p power) SetPower(machine string, on bool) error {
	if err := p.wc.SetPower(machine, on); err != nil {
		return err
	}
	v := 0.0
	if on {
		v = 1
	}
	return p.fc.Apply(&wire.FiddleOp{Op: wire.OpSetMachinePower, Strings: []string{machine}, Floats: []float64{v}})
}

// bootStack brings the rig up. On error everything opened so far is
// closed.
func bootStack(sp onlineSpec, seed int64, recordDir string) (st *stack, err error) {
	st = &stack{spec: sp, dir: recordDir, clk: clock.NewVirtual()}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	clk := st.clk
	reg := telemetry.NewRegistry()
	st.events = telemetry.NewEventLog(8192, clk)
	if sp.observers {
		st.tracer = causal.NewTracer(1<<15, clk)
		if st.rec, err = recordlog.Create(filepath.Join(recordDir, "online.mrl"), "online", clk); err != nil {
			return st, err
		}
		st.events.SetSink(st.rec.RecordEvent)
		st.tracer.SetSink(st.rec.RecordSpan)
	}

	t0 := time.Now()
	cm, err := model.DefaultCluster("room", sp.machines)
	if err != nil {
		return st, err
	}
	sol, err := solver.New(cm, solver.Config{Workers: 1})
	if err != nil {
		return st, err
	}
	st.buildS = time.Since(t0).Seconds()

	opts := []solverd.Option{solverd.WithClock(clk), solverd.WithTelemetry(reg, st.events)}
	if sp.observers {
		opts = append(opts, solverd.WithTracer(st.tracer))
		if st.surro, err = surrogate.New(sol, surrogate.Config{}); err != nil {
			return st, err
		}
		opts = append(opts, solverd.WithSurrogate(st.surro), solverd.WithRecorder(st.rec))
	}
	if st.srv, err = solverd.Listen("127.0.0.1:0", sol, opts...); err != nil {
		return st, err
	}
	go st.srv.Serve()
	addr := st.srv.Addr().String()

	st.names = make([]string, sp.machines)
	for i := range st.names {
		st.names[i] = fmt.Sprintf("machine%d", i+1)
	}
	comps := freon.DefaultComponents()

	if sp.observers {
		thr := map[string]freon.Thresholds{}
		for _, c := range comps {
			thr[c.Node] = c.Thresholds
		}
		ms, ns := sol.Probes()
		probes := make([]alert.Probe, len(ms))
		for i := range ms {
			t := thr[ns[i]]
			probes[i] = alert.Probe{Machine: ms[i], Node: ns[i],
				Low: float64(t.Low), High: float64(t.High), RedLine: float64(t.RedLine)}
		}
		surro, srv, rec := st.surro, st.srv, st.rec
		st.eng, err = alert.New(alert.Config{
			Rules:  alert.Defaults(),
			Step:   time.Second,
			Probes: probes,
			Fill:   sol.ReadAllTemps,
			Health: func() (uint64, uint64, uint64) {
				return srv.Stats().MissedTicks.Load(), srv.Stats().BoundaryMissed.Load(), rec.Drops()
			},
			Residual: func() (float64, float64, bool) {
				fs := surro.Stats()
				return fs.MaxResidualC, surro.ResidualTolerance(), fs.FitGeneration > 0
			},
			ETA:      surro.TimeToThreshold,
			Events:   st.events,
			Registry: reg,
			Clock:    clk,
		})
		if err != nil {
			return st, err
		}
		st.eng.Transitions().SetSink(st.rec.RecordAlert)
	}

	st.bal = lvs.New()
	if st.wc, err = webcluster.New(st.bal, st.names, webcluster.Config{}); err != nil {
		return st, err
	}
	t0 = time.Now()
	st.reqs = workload.GenerateWeb(workload.WebConfig{
		Duration: sp.duration,
		PeakRPS:  float64(sp.machines) * 0.7 / webcluster.Config{}.MeanCPUPerRequest(0.3),
		Seed:     seed,
	})
	st.generateS = time.Since(t0).Seconds()
	if sp.script != "" {
		script, err := fiddle.ParseScript(sp.script)
		if err != nil {
			return st, err
		}
		st.ops = script.Schedule()
	}

	st.synths = make([]*procfs.Synthetic, sp.machines)
	for i := range st.synths {
		st.synths[i] = procfs.NewSynthetic(model.UtilCPU, model.UtilDisk)
	}
	newMon := func(mc monitord.Config) error {
		mc.SolverAddr, mc.Interval, mc.Clock, mc.Tracer = addr, time.Second, clk, st.tracer
		d, err := monitord.New(mc)
		if err != nil {
			return err
		}
		st.mons = append(st.mons, d)
		return nil
	}
	if sp.batch {
		batch := make([]monitord.BatchMachine, sp.machines)
		for i, m := range st.names {
			batch[i] = monitord.BatchMachine{Machine: m, Sampler: st.synths[i]}
		}
		if err = newMon(monitord.Config{Machine: "shard0", Batch: batch}); err != nil {
			return st, err
		}
	} else {
		for i, m := range st.names {
			if err = newMon(monitord.Config{Machine: m, Sampler: st.synths[i]}); err != nil {
				return st, err
			}
		}
	}

	// The same phase offsets online.Run uses: solverd's ticker is
	// registered at t=0.25, Freon observes at t=k+0.5.
	clk.Advance(250 * time.Millisecond)
	st.srv.StartTicker()
	clk.Advance(250 * time.Millisecond)

	st.sens = &timedSensors{sensors: map[string]map[string]*sensor.Sensor{}}
	for _, m := range st.names {
		st.sens.sensors[m] = map[string]*sensor.Sensor{}
		for _, comp := range comps {
			s, err := sensor.OpenOptions(addr, m, comp.Node, sensor.Options{Clock: clk})
			if err != nil {
				return st, err
			}
			s.SetTracer(st.tracer)
			st.sens.sensors[m][comp.Node] = s
		}
	}
	if st.fc, err = fiddle.DialClock(addr, 0, 0, clk); err != nil {
		return st, err
	}
	st.fr, err = freon.New(st.names, st.sens, st.bal, power{wc: st.wc, fc: st.fc},
		freon.Config{Events: st.events, Tracer: st.tracer})
	return st, err
}

// close tears the rig down; safe on a partially booted stack.
func (st *stack) close() {
	if st.fc != nil {
		st.fc.Close()
	}
	if st.sens != nil {
		st.sens.close()
	}
	for _, d := range st.mons {
		d.Close()
	}
	if st.srv != nil {
		st.srv.Close()
	}
	if st.surro != nil {
		st.surro.Close()
	}
	if st.rec != nil {
		st.rec.Close()
	}
}

// second drives emulated second sec through every layer in
// online.Run's order, with a span around each call. The virtual clock
// makes the same three advances, so event and alert stamps match the
// untraced run's.
func (st *stack) second(sec int, tr *spanRec) error {
	w := st.spec.name
	root := tr.begin("emu_second", "bench", 0)
	now := time.Duration(sec) * time.Second

	for st.opIdx < len(st.ops) && st.ops[st.opIdx].At <= now {
		mark(sec, "fiddle apply")
		sp := tr.begin("fiddle.apply", "fiddle", root)
		err := st.fc.Apply(st.ops[st.opIdx].Op)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: second %d: fiddle: %w", w, sec, err)
		}
		st.opIdx++
	}

	first := st.reqIdx
	for limit := now + time.Second; st.reqIdx < len(st.reqs) && st.reqs[st.reqIdx].At < limit; {
		st.reqIdx++
	}
	st.requests += int64(st.reqIdx - first)
	sp := tr.begin("webcluster.tick", "webcluster", root)
	st.wc.TickSecond(st.reqs[first:st.reqIdx])
	tr.end(sp)

	sp = tr.begin("procfs.set", "procfs", root)
	for i, m := range st.names {
		utils, err := st.wc.Utilizations(m)
		if err != nil {
			return err
		}
		for src, u := range utils {
			st.synths[i].Set(src, u)
		}
	}
	tr.end(sp)

	advance := func(d time.Duration) {
		mark(sec, "clock advance")
		sp := tr.begin("clock.advance", "clock", root)
		st.clk.Advance(d)
		tr.end(sp)
	}

	// t -> sec+1.0: the monitords report.
	advance(500 * time.Millisecond)
	for _, d := range st.mons {
		sp := tr.begin("monitord.sample", "monitord", root)
		err := d.SampleOnce()
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: second %d: %w", w, sec, err)
		}
	}
	sp = tr.begin("solverd.ingest_wait", "solverd", root)
	want := uint64(len(st.names) * (sec + 1))
	err := waitFor(w, sec, "utilization updates applied", func() bool {
		return st.srv.Stats().UtilUpdates.Load() >= want
	})
	tr.end(sp)
	if err != nil {
		return err
	}

	// t -> sec+1.25: solverd steps.
	advance(250 * time.Millisecond)
	sp = tr.begin("solverd.step_wait", "solverd", root)
	err = waitFor(w, sec, "solver step", func() bool {
		return st.srv.Stats().SolverSteps.Load() >= uint64(sec+1)
	})
	tr.end(sp)
	if err != nil {
		return err
	}

	if st.eng != nil {
		sp = tr.begin("alert.eval", "alert", root)
		st.eng.EvalTick(uint64(sec + 1))
		tr.end(sp)
	}

	// t -> sec+1.5: Freon observes the post-step temperatures.
	advance(250 * time.Millisecond)
	cfg := st.fr.Config()
	if (sec+1)%int(cfg.ConnPoll/time.Second) == 0 {
		mark(sec, "freon poll")
		sp = tr.begin("freon.poll", "freon", root)
		st.sens.parent = sp
		err = st.fr.TickPoll()
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: second %d: freon poll: %w", w, sec, err)
		}
	}
	if (sec+1)%int(cfg.Period/time.Second) == 0 {
		mark(sec, "freon period")
		sp = tr.begin("freon.period", "freon", root)
		st.sens.parent = sp
		err = st.fr.TickPeriod()
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: second %d: freon period: %w", w, sec, err)
		}
	}

	if (sec+1)%10 == 0 {
		mark(sec, "temperature sample")
		sp = tr.begin("bench.sample_temps", "bench", root)
		st.sens.parent = sp
		smp := online.Sample{Sec: sec, Temps: make([]units.Celsius, len(st.names))}
		for i, m := range st.names {
			if smp.Temps[i], err = st.sens.Temperature(m, model.NodeCPU); err != nil {
				return fmt.Errorf("%s: second %d: %w", w, sec, err)
			}
		}
		st.stats.samples = append(st.stats.samples, smp)
		tr.end(sp)
	}
	tr.end(root)
	return nil
}

// finishRun collects the simulated statistics after the last second
// and flushes the capture.
func (st *stack) finishRun() error {
	st.stats.events = st.events.Since(0)
	if st.eng != nil {
		st.stats.alerts = st.eng.Timeline()
	}
	if st.rec != nil {
		if err := st.rec.Close(); err != nil {
			return fmt.Errorf("flight recorder: %w", err)
		}
	}
	return nil
}
