package solverd_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/fiddle"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/monitord"
	"github.com/darklab/mercury/internal/procfs"
	"github.com/darklab/mercury/internal/recordlog"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/solverd"
	"github.com/darklab/mercury/internal/surrogate"
	"github.com/darklab/mercury/internal/telemetry"
	"github.com/darklab/mercury/internal/units"
	"github.com/darklab/mercury/internal/wire"
)

// tickRig is one or two solverd shards over one cluster on a virtual
// clock, with every observer attached and a traced monitord per
// machine, driven either by StartTicker + Advance (ticker) or by
// Advance + Tick.
type tickRig struct {
	t       *testing.T
	ticker  bool
	clk     *clock.Virtual
	tracer  *causal.Tracer
	servers []*solverd.Server
	surro   *surrogate.Model
	recs    []*recordlog.Writer
	owner   map[string]int
	names   []string
	synths  map[string]*procfs.Synthetic
	mons    []*monitord.Daemon
	fcs     []*fiddle.Client
}

func newTickRig(t *testing.T, c *model.Cluster, shards int, ticker bool) *tickRig {
	t.Helper()
	r := &tickRig{t: t, ticker: ticker, clk: clock.NewVirtual(), owner: map[string]int{}, synths: map[string]*procfs.Synthetic{}}
	r.tracer = causal.NewTracer(1<<14, r.clk)
	events := telemetry.NewEventLog(1024, r.clk)
	var regions [][]string
	if shards > 1 {
		var err error
		if regions, err = solver.PartitionRegions(c, shards); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	for i := 0; i < shards; i++ {
		sol, err := solver.New(c, solver.Config{Workers: 1, Regions: regions, RegionIndex: i})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := recordlog.Create(filepath.Join(dir, fmt.Sprintf("shard%d.mrl", i)), "tick", r.clk)
		if err != nil {
			t.Fatal(err)
		}
		opts := []solverd.Option{
			solverd.WithClock(r.clk), solverd.WithTracer(r.tracer), solverd.WithRecorder(rec),
			solverd.WithTelemetry(telemetry.NewRegistry(), events),
		}
		if shards == 1 {
			if r.surro, err = surrogate.New(sol, surrogate.Config{}); err != nil {
				t.Fatal(err)
			}
			opts = append(opts, solverd.WithSurrogate(r.surro))
		}
		srv, err := solverd.Listen("127.0.0.1:0", sol, opts...)
		if err != nil {
			t.Fatal(err)
		}
		r.servers, r.recs = append(r.servers, srv), append(r.recs, rec)
		for _, m := range sol.Machines() {
			r.owner[m] = i
		}
	}
	if shards > 1 {
		addrs := map[int]string{}
		for i, s := range r.servers {
			addrs[i] = s.Addr().String()
		}
		for _, s := range r.servers {
			if err := s.SetPeers(addrs); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, s := range r.servers {
		go s.Serve()
		if ticker {
			s.StartTicker()
		}
		fc, err := fiddle.DialClock(s.Addr().String(), 0, 0, r.clk)
		if err != nil {
			t.Fatal(err)
		}
		r.fcs = append(r.fcs, fc)
	}
	for _, m := range c.Machines {
		r.names = append(r.names, m.Name)
		r.synths[m.Name] = procfs.NewSynthetic(model.UtilCPU, model.UtilDisk)
		d, err := monitord.New(monitord.Config{
			Machine: m.Name, Sampler: r.synths[m.Name], Clock: r.clk, Tracer: r.tracer,
			SolverAddr: r.servers[r.owner[m.Name]].Addr().String(),
		})
		if err != nil {
			t.Fatal(err)
		}
		r.mons = append(r.mons, d)
	}
	return r
}

// wait spins until cond holds: both drivers need it for the datagrams
// (only the ticker driver waits for the step, with waitSteps).
func (r *tickRig) wait(what string, cond func() bool) {
	r.t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			r.t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Microsecond)
	}
}

// second feeds tick n's utilizations (and, on a few ticks, fiddle ops)
// at t = n-1, then takes the clock to t = n and the shards through
// tick n.
func (r *tickRig) second(n uint64) {
	r.t.Helper()
	for i, m := range r.names {
		// A deterministic sawtooth, different per machine and source.
		r.synths[m].Set(model.UtilCPU, units.Fraction(float64((n*7+uint64(i)*13)%100)/100))
		r.synths[m].Set(model.UtilDisk, units.Fraction(float64((n*3+uint64(i)*29)%100)/100))
		if err := r.mons[i].SampleOnce(); err != nil {
			r.t.Fatal(err)
		}
	}
	r.wait("utilization updates", func() bool {
		var got uint64
		for _, s := range r.servers {
			got += s.Stats().UtilUpdates.Load()
		}
		return got == n*uint64(len(r.names))
	})
	switch n {
	case 30: // one machine's inlet, to its owner
		m := r.names[0]
		op := &wire.FiddleOp{Op: wire.OpPinInlet, Strings: []string{m}, Floats: []float64{38.6}}
		if err := r.fcs[r.owner[m]].Apply(op); err != nil {
			r.t.Fatal(err)
		}
	case 70: // a source setpoint, to every shard
		for _, fc := range r.fcs {
			op := &wire.FiddleOp{Op: wire.OpSetSourceTemp, Strings: []string{model.NodeAC}, Floats: []float64{27}}
			if err := fc.Apply(op); err != nil {
				r.t.Fatal(err)
			}
		}
	}
	r.clk.Advance(time.Second)
	if r.ticker {
		waitSteps(r.t, r.servers, n)
		return
	}
	for _, s := range r.servers {
		if !s.Tick() {
			r.t.Fatal("Tick reported the daemon closing")
		}
	}
}

// tickOutcome is everything a driver can have changed.
type tickOutcome struct {
	stats    [][11]uint64
	spans    []causal.Span
	series   [][][]float64 // shard, probe, sampled values
	samples  uint64        // surrogate trajectory samples
	inputs   [][]recordlog.Input
	rows     [][]recordlog.TempRow
	boundary [][]recordlog.BoundaryRecord
	temps    map[string]map[string]units.Celsius
}

// finish drains the last boundary frames, shuts the rig down and
// collects its outcome.
func (r *tickRig) finish(ticks uint64) tickOutcome {
	r.t.Helper()
	// Nothing ever waits for the last tick's exhausts; let them land so
	// BoundaryIn compares.
	r.wait("last boundary frames", func() bool {
		var in, out uint64
		for _, s := range r.servers {
			in += s.Stats().BoundaryIn.Load()
			out += s.Stats().BoundaryOut.Load()
		}
		return in == out
	})
	o := tickOutcome{spans: r.tracer.Canonical(), temps: map[string]map[string]units.Celsius{}}
	if r.surro != nil {
		o.samples = r.surro.SamplesTotal()
	}
	for _, d := range r.mons {
		d.Close()
	}
	for _, fc := range r.fcs {
		fc.Close()
	}
	for i, s := range r.servers {
		// Close first: the ticker samples temperatures after it bumps
		// SolverSteps, and Close waits for it.
		if err := s.Close(); err != nil {
			r.t.Fatal(err)
		}
		st := s.Stats()
		o.stats = append(o.stats, [11]uint64{
			st.UtilUpdates.Load(), st.SensorReads.Load(), st.FiddleOps.Load(), st.ListRequests.Load(),
			st.Malformed.Load(), st.SolverSteps.Load(), st.MissedTicks.Load(), st.UtilBatches.Load(),
			st.BoundaryOut.Load(), st.BoundaryIn.Load(), st.BoundaryMissed.Load(),
		})
		var series [][]float64
		for p := range s.Temps().Probes() {
			_, vals := s.Temps().Series(p)
			series = append(series, vals)
		}
		o.series = append(o.series, series)
		for _, m := range s.Solver().Machines() {
			temps, err := s.Solver().Temperatures(m)
			if err != nil {
				r.t.Fatal(err)
			}
			o.temps[m] = temps
		}
		if err := r.recs[i].Close(); err != nil {
			r.t.Fatal(err)
		}
		if d := r.recs[i].Drops(); d != 0 {
			r.t.Fatalf("shard %d recorder dropped %d records", i, d)
		}
		log, err := recordlog.ReadLog(r.recs[i].Path())
		if err != nil {
			r.t.Fatal(err)
		}
		// File order within one instant is the order the loopback socket
		// delivered the datagrams in; compare by content.
		sort.SliceStable(log.Inputs, func(a, b int) bool {
			x, y := log.Inputs[a], log.Inputs[b]
			if x.Tick != y.Tick {
				return x.Tick < y.Tick
			}
			if (x.Util != nil) != (y.Util != nil) {
				return x.Util != nil
			}
			return x.Util != nil && x.Util.Machine < y.Util.Machine
		})
		o.inputs = append(o.inputs, log.Inputs)
		o.rows = append(o.rows, log.TempRows)
		o.boundary = append(o.boundary, log.Boundary)
	}
	if got := o.stats[0][5]; got != ticks {
		r.t.Fatalf("shard 0 took %d steps, want %d", got, ticks)
	}
	return o
}

// TestTickMatchesTicker: a harness that calls Tick after each Advance
// gets, bit for bit, what StartTicker's goroutine produces — counters,
// canonical spans, sampled temperature rows, the surrogate's trajectory
// count, the recorder's UTL/FDL/TMP (and, sharded, BND) records and the
// final temperatures — on one daemon and on a two-shard pair exchanging
// boundary exhausts.
func TestTickMatchesTicker(t *testing.T) {
	const ticks = 130
	room, err := model.DefaultCluster("room", 4)
	if err != nil {
		t.Fatal(err)
	}
	rack, err := model.RackCluster("room", 1, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		cluster *model.Cluster
		shards  int
	}{{"single", room, 1}, {"two-shard", rack, 2}} {
		t.Run(c.name, func(t *testing.T) {
			var got [2]tickOutcome
			for i, ticker := range []bool{true, false} {
				r := newTickRig(t, c.cluster, c.shards, ticker)
				for n := uint64(1); n <= ticks; n++ {
					r.second(n)
				}
				got[i] = r.finish(ticks)
			}
			a, o := got[0], got[1]
			for _, f := range []struct {
				name             string
				byTicker, byTick any
			}{
				{"Stats", a.stats, o.stats}, {"canonical spans", a.spans, o.spans},
				{"temperature series", a.series, o.series}, {"surrogate samples", a.samples, o.samples},
				{"UTL/FDL records", a.inputs, o.inputs}, {"TMP records", a.rows, o.rows},
				{"BND records", a.boundary, o.boundary}, {"final temperatures", a.temps, o.temps},
			} {
				if !reflect.DeepEqual(f.byTicker, f.byTick) {
					t.Errorf("%s differ between StartTicker and Tick", f.name)
				}
			}
			if len(o.spans) == 0 || len(o.rows[0]) != ticks/10 || len(o.inputs[0]) == 0 {
				t.Errorf("thin outcome: %d spans, %d temperature rows, %d inputs", len(o.spans), len(o.rows[0]), len(o.inputs[0]))
			}
			if c.shards == 1 && o.samples == 0 {
				t.Error("surrogate recorded no trajectory samples")
			}
			if c.shards > 1 && len(o.boundary[1]) == 0 {
				t.Error("no boundary records captured on the importing shard")
			}
		})
	}
}
