package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/monitord"
	"github.com/darklab/mercury/internal/procfs"
	"github.com/darklab/mercury/internal/sensor"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/solverd"
	"github.com/darklab/mercury/internal/units"
	"github.com/darklab/mercury/internal/wire"
)

// rack-sharded: one recirculating machine room split across two
// solverd daemons that exchange boundary exhausts over loopback every
// tick, fed by one batched monitord per shard, read through the sensor
// library while the writes are in flight. No web cluster, no Freon, no
// observers: boundary exchange, batch ingest and the step barrier are
// what is left.

const shardedName = "rack-sharded"

type shardedSpec struct {
	racks, perRack int
	shards         int
	reads          int // sensor reads per tick
	block          int // ticks per measured block
	digestTicks    int // sim_digest covers this many leading ticks
}

func shardedSpecFor(quick bool) shardedSpec {
	if quick {
		return shardedSpec{racks: 3, perRack: 16, shards: 2, reads: 8, block: 50, digestTicks: 200}
	}
	return shardedSpec{racks: 3, perRack: 64, shards: 2, reads: 8, block: 500, digestTicks: 2000}
}

// shardedRig is the booted daemon set plus the handles the driver
// needs to feed and read it.
type shardedRig struct {
	spec    shardedSpec
	clk     *clock.Virtual
	cm      *model.Cluster
	servers []*solverd.Server
	mons    []*monitord.Daemon
	synths  []*procfs.Synthetic // by machine index in cm.Machines
	owned   []int               // machines per shard
	sensors []*sensor.Sensor
	buildS  float64
	frames  int // boundary datagrams the daemons send each tick
	records int // records in the largest of them
}

func bootSharded(spec shardedSpec) (rig *shardedRig, err error) {
	rig = &shardedRig{spec: spec, clk: clock.NewVirtual()}
	defer func() {
		if err != nil {
			rig.close()
			rig = nil
		}
	}()
	t0 := time.Now()
	if rig.cm, err = model.RackCluster("room", spec.racks, spec.perRack, nil); err != nil {
		return rig, err
	}
	var regions [][]string
	if spec.shards > 1 {
		if regions, err = solver.PartitionRegions(rig.cm, spec.shards); err != nil {
			return rig, err
		}
	}
	sols := make([]*solver.Solver, spec.shards)
	for i := range sols {
		if sols[i], err = solver.New(rig.cm, solver.Config{Workers: 1, Regions: regions, RegionIndex: i}); err != nil {
			return rig, err
		}
	}
	rig.buildS = time.Since(t0).Seconds()

	for _, sol := range sols {
		srv, err := solverd.Listen("127.0.0.1:0", sol, solverd.WithClock(rig.clk))
		if err != nil {
			return rig, err
		}
		rig.servers = append(rig.servers, srv)
	}
	if spec.shards > 1 {
		addrs := map[int]string{}
		for i, s := range rig.servers {
			addrs[i] = s.Addr().String()
		}
		for _, s := range rig.servers {
			if err = s.SetPeers(addrs); err != nil {
				return rig, err
			}
			for _, p := range s.Solver().BoundaryPeers() {
				// solverd chunks a link's records at MaxBoundaryRecords.
				n := len(s.Solver().BoundaryOutTo(p))
				rig.frames += (n + wire.MaxBoundaryRecords - 1) / wire.MaxBoundaryRecords
				if n > wire.MaxBoundaryRecords {
					n = wire.MaxBoundaryRecords
				}
				if n > rig.records {
					rig.records = n
				}
			}
		}
	}
	for _, s := range rig.servers {
		go s.Serve()
		s.StartTicker()
	}

	index := map[string]int{}
	rig.synths = make([]*procfs.Synthetic, len(rig.cm.Machines))
	for i, m := range rig.cm.Machines {
		index[m.Name] = i
		rig.synths[i] = procfs.NewSynthetic(model.UtilCPU, model.UtilDisk)
	}
	for i, s := range rig.servers {
		names := s.Solver().Machines()
		batch := make([]monitord.BatchMachine, len(names))
		for j, m := range names {
			batch[j] = monitord.BatchMachine{Machine: m, Sampler: rig.synths[index[m]]}
		}
		d, err := monitord.New(monitord.Config{
			Machine:    fmt.Sprintf("shard%d", i),
			Batch:      batch,
			SolverAddr: s.Addr().String(),
			Clock:      rig.clk,
		})
		if err != nil {
			return rig, err
		}
		rig.mons = append(rig.mons, d)
		rig.owned = append(rig.owned, len(names))
	}

	// Fixed sensors, spread evenly over the room (and so over the
	// shards), alternating the two nodes Freon would watch. They run
	// on the real clock: a lost datagram then costs a 250 ms retry,
	// not a wait for a virtual clock nobody is advancing.
	nodes := []string{model.NodeCPU, model.NodeDiskPlatters}
	for k := 0; k < spec.reads; k++ {
		m := rig.cm.Machines[(2*k+1)*len(rig.cm.Machines)/(2*spec.reads)].Name
		owner := rig.servers[0]
		if spec.shards > 1 {
			r, err := owner.Solver().MachineRegion(m)
			if err != nil {
				return rig, err
			}
			owner = rig.servers[r]
		}
		s, err := sensor.OpenOptions(owner.Addr().String(), m, nodes[k%2], sensor.Options{})
		if err != nil {
			return rig, err
		}
		rig.sensors = append(rig.sensors, s)
	}
	return rig, nil
}

func (rig *shardedRig) close() {
	for _, s := range rig.sensors {
		s.Close()
	}
	for _, d := range rig.mons {
		d.Close()
	}
	for _, s := range rig.servers {
		s.Close()
	}
}

// shardedRun is a rig being driven: the reference solver stepped
// beside it, the seeded churn, and the running tallies.
type shardedRun struct {
	rig   *shardedRig
	ref   *solver.Solver
	rng   *rand.Rand
	names []string
	tick  int

	refBuf   []float64
	shardBuf [][]float64
	refIdx   [][]int // shard probe -> reference probe

	churn      []int
	churnUtils []float64
	digest     *digest
	sensorErrs int64
	badTicks   int64
	tickUs     samples
}

func newShardedRun(rig *shardedRig, seed int64) (*shardedRun, error) {
	ref, err := solver.New(rig.cm, solver.Config{Workers: 1})
	if err != nil {
		return nil, err
	}
	run := &shardedRun{rig: rig, ref: ref, rng: rand.New(rand.NewSource(seed)), digest: newDigest()}
	for _, m := range rig.cm.Machines {
		run.names = append(run.names, m.Name)
	}
	refPos := map[string]int{}
	ms, ns := ref.Probes()
	for i := range ms {
		refPos[ms[i]+"/"+ns[i]] = i
	}
	run.refBuf = make([]float64, len(ms))
	for _, s := range rig.servers {
		ms, ns := s.Solver().Probes()
		idx := make([]int, len(ms))
		for i := range ms {
			idx[i] = refPos[ms[i]+"/"+ns[i]]
		}
		run.refIdx = append(run.refIdx, idx)
		run.shardBuf = append(run.shardBuf, make([]float64, len(ms)))
	}
	run.churn = make([]int, len(run.names)/10)
	run.churnUtils = make([]float64, 2*len(run.churn))
	return run, nil
}

// step drives one tick through the daemons and the reference.
func (run *shardedRun) step(tr *spanRec) error {
	rig := run.rig
	run.tick++
	t := run.tick
	start := time.Now()
	root := tr.begin("tick", "bench", 0)

	// Seeded churn: a tenth of the room changes load every tick.
	sp := tr.begin("procfs.set", "procfs", root)
	for k := range run.churn {
		i := run.rng.Intn(len(run.names))
		cpu, disk := run.rng.Float64(), run.rng.Float64()
		run.churn[k], run.churnUtils[2*k], run.churnUtils[2*k+1] = i, cpu, disk
		rig.synths[i].Set(model.UtilCPU, units.Fraction(cpu))
		rig.synths[i].Set(model.UtilDisk, units.Fraction(disk))
	}
	tr.end(sp)

	// Writes with the sensor reads interleaved: every read lands on a
	// solverd socket that is also receiving this tick's batches. The
	// reference has not stepped yet, so a read must return exactly the
	// reference's current temperature.
	per := (len(rig.sensors) + len(rig.mons) - 1) / len(rig.mons)
	next := 0
	for _, d := range rig.mons {
		mark(t, "monitord sample")
		sp = tr.begin("monitord.sample", "monitord", root)
		err := d.SampleOnce()
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: tick %d: %w", shardedName, t, err)
		}
		for k := 0; k < per && next < len(rig.sensors); k++ {
			s := rig.sensors[next]
			next++
			mark(t, "sensor read")
			sp = tr.begin("sensor.read", "sensor", root)
			got, err := s.Read()
			tr.end(sp)
			want, _ := run.ref.Temperature(s.Machine(), s.Node())
			if err != nil || got != want {
				run.sensorErrs++
			}
		}
	}

	sp = tr.begin("solverd.ingest_wait", "solverd", root)
	err := waitFor(shardedName, t, "utilization batches applied", func() bool {
		for i, s := range rig.servers {
			if s.Stats().UtilUpdates.Load() < uint64(rig.owned[i]*t) {
				return false
			}
		}
		return true
	})
	tr.end(sp)
	if err != nil {
		return err
	}

	// The reference takes the same inputs and the same step.
	sp = tr.begin("reference.step", "reference", root)
	for k, i := range run.churn {
		// Machine names come from the model the solver was built on.
		_ = run.ref.SetUtilization(run.names[i], model.UtilCPU, units.Fraction(run.churnUtils[2*k]).Clamp())
		_ = run.ref.SetUtilization(run.names[i], model.UtilDisk, units.Fraction(run.churnUtils[2*k+1]).Clamp())
	}
	inner := tr.begin("solver.step", "solver", sp)
	run.ref.Step()
	tr.end(inner)
	tr.end(sp)

	mark(t, "clock advance")
	sp = tr.begin("clock.advance", "clock", root)
	rig.clk.Advance(time.Second)
	tr.end(sp)
	sp = tr.begin("solverd.step_wait", "solverd", root)
	err = waitFor(shardedName, t, "every shard stepped", func() bool {
		for _, s := range rig.servers {
			if s.Stats().SolverSteps.Load() < uint64(t) {
				return false
			}
		}
		return true
	})
	tr.end(sp)
	if err != nil {
		return err
	}

	// Every owned temperature must equal the reference's, bit for bit.
	sp = tr.begin("reference.compare", "reference", root)
	run.ref.ReadAllTemps(run.refBuf)
	ok := true
	for s, srv := range rig.servers {
		buf := run.shardBuf[s]
		srv.Solver().ReadAllTemps(buf)
		for i, v := range buf {
			if math.Float64bits(v) != math.Float64bits(run.refBuf[run.refIdx[s][i]]) {
				ok = false
			}
		}
	}
	if !ok {
		run.badTicks++
	}
	if t <= rig.spec.digestTicks && t%50 == 0 {
		for _, buf := range run.shardBuf {
			run.digest.f64s(buf)
		}
	}
	tr.end(sp)
	tr.end(root)
	run.tickUs.add(float64(time.Since(start).Nanoseconds()) / 1e3)
	return nil
}

// runBlock steps spec.block ticks and reports the block's rates.
func (run *shardedRun) runBlock(tr *spanRec) (blockStat, error) {
	n := run.rig.spec.block
	b, err := measure(float64(n), func() error {
		for i := 0; i < n; i++ {
			if err := run.step(tr); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		tr.flush()
	}
	return b, err
}

// runBlocks runs blocks until at least minBlocks are done and seconds
// have passed.
func (run *shardedRun) runBlocks(tr *spanRec, minBlocks int, seconds float64) (blocks, error) {
	var out blocks
	start := time.Now()
	for len(out) < minBlocks || time.Since(start).Seconds() < seconds {
		b, err := run.runBlock(tr)
		if err != nil {
			return out, err
		}
		out = append(out, b)
	}
	return out, nil
}

// account books the run's operations and checks its invariants.
func (run *shardedRun) account(r *report) {
	rig := run.rig
	ticks := int64(run.tick)
	frames := int64(rig.frames) * ticks
	r.attempt(ticks + ticks*int64(len(run.names)) + ticks*int64(len(rig.sensors)) + frames)
	// A daemon counts a step before it publishes that step's exhausts,
	// so the last tick's frames may still be in flight when the step
	// wait returns; nothing later in the run would wait for them.
	var out, in uint64
	err := waitFor(shardedName, run.tick, "last tick's boundary frames sent and staged", func() bool {
		out, in = 0, 0
		for _, s := range rig.servers {
			out += s.Stats().BoundaryOut.Load()
			in += s.Stats().BoundaryIn.Load()
		}
		return int64(out) >= frames && int64(in) >= frames
	})
	var missed, bMissed, updates, batches, sendErrs uint64
	for _, s := range rig.servers {
		st := s.Stats()
		missed += st.MissedTicks.Load()
		bMissed += st.BoundaryMissed.Load()
		updates += st.UtilUpdates.Load()
		batches += st.UtilBatches.Load()
	}
	for _, d := range rig.mons {
		sendErrs += d.Errors()
	}
	r.fail(int64(missed), shardedName+": missed ticks")
	r.fail(int64(bMissed), shardedName+": boundary barrier misses")
	r.fail(int64(sendErrs), shardedName+": monitord send errors")
	r.fail(run.sensorErrs, shardedName+": sensor reads failed or differed from the reference")
	r.fail(run.badTicks, shardedName+": ticks whose temperatures differ from the reference")
	r.check("every owned temperature bit-equals the reference solver on every tick",
		run.badTicks == 0, fmt.Sprintf("%d ticks", ticks))
	r.check("boundary frames flowed every tick", err == nil,
		fmt.Sprintf("out %d, in %d, expected %d", out, in, frames))
	r.SimDigest = run.digest.sum()
	r.Counts["ticks"] = ticks
	r.Counts["solverd.util_updates_per_tick"] = int64(updates) / ticks
	r.Counts["solverd.util_batches_per_tick"] = int64(batches) / ticks
	r.Counts["solverd.boundary_out_per_tick"] = int64(out) / ticks
	if r.Traced {
		r.set("solverd.util_updates", float64(updates)/float64(ticks))
		r.set("solverd.util_batches", float64(batches)/float64(ticks))
		r.set("solverd.missed_ticks", float64(missed))
		r.set("solverd.boundary_out", float64(out)/float64(ticks))
		r.set("solverd.boundary_in", float64(in)/float64(ticks))
		r.set("solverd.boundary_missed", float64(bMissed))
		r.set("monitord.send_errors", float64(sendErrs))
		r.set("sensor.read_errors", float64(run.sensorErrs))
	}
}

// shardedSetup boots and tears down the daemon set n times.
func shardedSetup(spec shardedSpec, n int) (samples, float64, error) {
	var boots samples
	var buildS samples
	for i := 0; i < n; i++ {
		mark(i, "daemon set boot")
		runtime.GC()
		t0 := time.Now()
		rig, err := bootSharded(spec)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: boot %d: %w", shardedName, i, err)
		}
		boots.add(time.Since(t0).Seconds())
		buildS.add(rig.buildS)
		rig.close()
	}
	return boots, buildS.median(), nil
}

func runSharded(opt options, r *report) error {
	spec := shardedSpecFor(opt.quick)
	boots, minBlocks := 15, 4
	if opt.quick {
		boots, minBlocks = 3, 4
	}
	if opt.trace {
		boots = 5
	}
	setup, buildS, err := shardedSetup(spec, boots)
	if err != nil {
		return err
	}
	rig, err := bootSharded(spec)
	if err != nil {
		return err
	}
	defer rig.close()
	run, err := newShardedRun(rig, opt.seed)
	if err != nil {
		return err
	}

	// Two warm-up blocks, checked like every other tick but not timed.
	if _, err := run.runBlocks(nil, 2, 0); err != nil {
		run.account(r)
		return err
	}
	run.tickUs = nil

	if !opt.trace {
		r.setMetric("setup_s", setup.timing())
		blocks, err := run.runBlocks(nil, minBlocks, opt.seconds)
		run.account(r)
		if err != nil {
			return err
		}
		r.setMeasured(blocks)
		return nil
	}

	// Traced: a quarter of the time untraced first, for the tracing
	// overhead and the allocation rates, then the traced blocks.
	plain, err := run.runBlocks(nil, 2, opt.seconds/4)
	if err != nil {
		run.account(r)
		return err
	}
	plainTick := run.tickUs
	run.tickUs = nil
	gc0 := snap()
	tr := newSpanRec()
	traced, err := run.runBlocks(tr, minBlocks, opt.seconds)
	gc1 := snap()
	run.account(r)
	if err != nil {
		return err
	}
	emuS := float64(len(traced) * spec.block)
	perEmu := func(name string) float64 { return tr.stat(name).total / emuS }

	r.setMetric("runtime.allocs_per_emu_s", plain.allocs().timing())
	r.setMetric("runtime.alloc_kib_per_emu_s", plain.allocKiB().timing())
	r.set("gc.cycles", float64(gc1.numGC-gc0.numGC)/emuS*1000)
	r.set("gc.pause_ms", float64(gc1.pauseNs-gc0.pauseNs)/1e6/emuS*1000)
	r.setTiming("tick_wall_us", tr.stat("tick").durs)
	r.set("trace.wall_us_per_emu_s", run.tickUs.median())
	r.set("trace.overhead_ratio", run.tickUs.median()/plainTick.median())

	r.set("procfs.set_us_per_emu_s", perEmu("procfs.set"))
	r.setTiming("monitord.sample_us", tr.stat("monitord.sample").durs)
	r.set("monitord.self_us_per_emu_s", tr.stat("monitord.sample").self/emuS)
	r.set("solverd.ingest_wait_us_per_emu_s", perEmu("solverd.ingest_wait"))
	r.setTiming("solverd.step_wait_us", tr.stat("solverd.step_wait").durs)
	r.setTiming("sensor.read_us", tr.stat("sensor.read").durs)
	r.set("sensor.reads_per_emu_s", float64(tr.stat("sensor.read").count)/emuS)
	r.setMetric("clock.advance_us", tr.stat("clock.advance").durs.timing())
	r.set("clock.advances_per_emu_s", float64(tr.stat("clock.advance").count)/emuS)
	self := tr.layerSelf()
	r.set("bench.driver_self_us_per_emu_s", self["bench"]/emuS)
	r.set("bench.reference_us_per_emu_s", (self["reference"]+self["solver"])/emuS)
	r.set("solver.build_s", buildS)
	r.Counts["setup_boots"] = int64(len(setup))

	var dgrams, bytes float64
	for _, n := range rig.owned {
		d, b := utilTraffic(onlineSpec{machines: n, batch: true})
		dgrams, bytes = dgrams+d, bytes+b
	}
	r.set("monitord.datagrams_per_emu_s", dgrams)
	r.set("monitord.bytes_per_emu_s", bytes)
	r.set("sensor.read_allocs", allocsPer(100, func() { rig.sensors[0].Read() }))

	// The same room behind one daemon: what sharding costs per tick.
	one := spec
	one.shards = 1
	oneRig, err := bootSharded(one)
	if err != nil {
		return err
	}
	defer oneRig.close()
	oneRun, err := newShardedRun(oneRig, opt.seed)
	if err != nil {
		return err
	}
	if _, err := oneRun.runBlocks(nil, 2, 0); err != nil {
		return err
	}
	r.check("single-daemon side run matches the reference", oneRun.badTicks == 0 && oneRun.sensorErrs == 0, "")
	r.set("solverd.shard_overhead_ratio", plainTick.median()/oneRun.tickUs.median())

	if err := solverTwin(r, rig.cm, opt.quick); err != nil {
		return err
	}
	// The kernel time that matters here is the reference's in-loop step.
	r.setTiming("solver.step_us", tr.stat("solver.step").durs)
	r.set("solver.machine_steps_per_s", float64(len(run.names))/tr.stat("solver.step").durs.median()*1e6)
	layerMicros(r, 0, rig.records)
	if opt.traceOut != "" {
		return tr.writeFile(opt.traceOut)
	}
	return nil
}
