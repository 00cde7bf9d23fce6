package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/units"
)

// room-kernel: the step kernel alone on a room far larger than the
// last-level cache. No UDP, no daemons, no observers — a stack
// optimisation must not move it, a kernel optimisation moves only it.

const kernelName = "room-kernel"

type kernelSpec struct {
	racks, perRack int
	block          int // ticks per measured block
	twinTicks      int // ticks the Workers:nproc twin is checked over
}

func kernelSpecFor(quick bool) kernelSpec {
	if quick {
		return kernelSpec{racks: 20, perRack: 40, block: 10, twinTicks: 40}
	}
	return kernelSpec{racks: 500, perRack: 40, block: 20, twinTicks: 200}
}

// kernelRoom is one booted room: the model, the solver, and scratch.
type kernelRoom struct {
	sol    *solver.Solver
	names  []string
	temps  []float64
	rng    *rand.Rand
	bootS  float64
	buildS float64
}

func bootKernel(spec kernelSpec, workers int, seed int64) (*kernelRoom, error) {
	mark(0, "room build")
	t0 := time.Now()
	cm, err := model.RackCluster("room", spec.racks, spec.perRack, nil)
	if err != nil {
		return nil, err
	}
	sol, err := solver.New(cm, solver.Config{Workers: workers})
	if err != nil {
		return nil, err
	}
	build := time.Since(t0).Seconds()
	ms, _ := sol.Probes()
	k := &kernelRoom{
		sol:    sol,
		names:  sol.Machines(),
		temps:  make([]float64, len(ms)),
		rng:    rand.New(rand.NewSource(seed)),
		buildS: build,
	}
	k.bootS = time.Since(t0).Seconds()
	return k, nil
}

// tick is one emulated second: a seeded tenth of the room changes
// load, the room steps, every temperature is read back.
func (k *kernelRoom) tick(tr *spanRec, stepUs *samples) {
	root := tr.begin("tick", "bench", 0)
	sp := tr.begin("solver.set_util", "solver", root)
	for i := len(k.names) / 10; i > 0; i-- {
		// Names come from the solver itself, so the write cannot fail.
		_ = k.sol.SetUtilization(k.names[k.rng.Intn(len(k.names))], model.UtilCPU, units.Fraction(k.rng.Float64()))
	}
	tr.end(sp)
	sp = tr.begin("solver.step", "solver", root)
	t0 := time.Now()
	k.sol.Step()
	if stepUs != nil {
		stepUs.add(float64(time.Since(t0).Nanoseconds()) / 1e3)
	}
	tr.end(sp)
	sp = tr.begin("solver.read_all_temps", "solver", root)
	k.sol.ReadAllTemps(k.temps)
	tr.end(sp)
	tr.end(root)
}

// prefixDigest runs n ticks and hashes every temperature after each
// tenth tick.
func (k *kernelRoom) prefixDigest(n int, stepUs *samples) string {
	d := newDigest()
	for t := 1; t <= n; t++ {
		mark(t, "twin prefix tick")
		k.tick(nil, stepUs)
		if t%10 == 0 {
			d.f64s(k.temps)
		}
	}
	return d.sum()
}

func runKernel(opt options, r *report) error {
	spec := kernelSpecFor(opt.quick)
	boots, minBlocks := 5, 5
	if opt.quick {
		boots, minBlocks = 3, 3
	}
	machines := float64(spec.racks * spec.perRack)

	// The Workers:nproc twin runs the digest prefix first and is freed
	// before the measured room is built, so peak RSS is one room's.
	var setup, build samples
	twin, err := bootKernel(spec, runtime.NumCPU(), opt.seed)
	if err != nil {
		return err
	}
	setup.add(twin.bootS)
	build.add(twin.buildS)
	twinStep := make(samples, 0, spec.twinTicks)
	twinDigest := twin.prefixDigest(spec.twinTicks, &twinStep)
	twin = nil
	debug.FreeOSMemory()
	for i := 2; i < boots; i++ {
		k, err := bootKernel(spec, 1, opt.seed)
		if err != nil {
			return err
		}
		setup.add(k.bootS)
		build.add(k.buildS)
		debug.FreeOSMemory() // collects the room first; the next one reuses the space
	}

	room, err := bootKernel(spec, 1, opt.seed)
	if err != nil {
		return err
	}
	setup.add(room.bootS)
	build.add(room.buildS)
	prefixStep := make(samples, 0, spec.twinTicks)
	got := room.prefixDigest(spec.twinTicks, &prefixStep)
	r.SimDigest = got
	r.attempt(int64(spec.twinTicks))
	if got != twinDigest {
		r.fail(1, kernelName+": Workers:1 digest differs from the Workers:nproc twin")
	}
	r.check(fmt.Sprintf("Workers:1 digest equals the Workers:%d twin over %d ticks", runtime.NumCPU(), spec.twinTicks),
		got == twinDigest, got)
	stepAllocs := allocsPer(10, room.sol.Step)
	r.check("Step allocates nothing", stepAllocs == 0, fmt.Sprintf("%g allocations per step", stepAllocs))

	// The room's memory peak is its build — the model and the compile's
	// garbage beside the arrays — which the blocks, allocating nothing,
	// never repeat: the figure is the mark up to here, not the blocks'.
	buildPeak := peakRSSMiB()

	// Measured blocks.
	var tr *spanRec
	if opt.trace {
		tr = newSpanRec()
	}
	var measured blocks
	var stepUs samples
	gc0 := snap()
	start := time.Now()
	for len(measured) < minBlocks || time.Since(start).Seconds() < opt.seconds {
		mark(len(measured)*spec.block, "measured block")
		b, _ := measure(float64(spec.block), func() error {
			for i := 0; i < spec.block; i++ {
				room.tick(tr, &stepUs)
			}
			return nil
		})
		tr.flush()
		measured = append(measured, b)
	}
	gc1 := snap()
	ticks := len(measured) * spec.block
	r.attempt(int64(ticks))
	r.Counts["ticks"] = int64(ticks + spec.twinTicks)

	if !opt.trace {
		r.setMetric("setup_s", setup.timing())
		r.setMeasured(measured)
		r.set("peak_rss_mib", buildPeak)
		return nil
	}

	emuS := float64(ticks)
	r.Counts["setup_boots"] = int64(len(setup))
	r.setTiming("solver.step_us", stepUs)
	r.set("solver.machine_steps_per_s", machines/stepUs.median()*1e6)
	setUtil := tr.stat("solver.set_util")
	r.set("solver.set_util_ns", setUtil.total*1e3/float64(setUtil.count)/(machines/10))
	r.set("solver.read_all_temps_us", tr.stat("solver.read_all_temps").durs.median())
	r.set("solver.step_allocs", stepAllocs)
	r.set("solver.parallel_speedup", prefixStep.median()/twinStep.median())
	r.set("solver.build_s", build.median())
	r.setMetric("runtime.allocs_per_emu_s", measured.allocs().timing())
	r.setMetric("runtime.alloc_kib_per_emu_s", measured.allocKiB().timing())
	r.set("gc.cycles", float64(gc1.numGC-gc0.numGC)/emuS*1000)
	r.set("gc.pause_ms", float64(gc1.pauseNs-gc0.pauseNs)/1e6/emuS*1000)
	r.setTiming("tick_wall_us", tr.stat("tick").durs)
	r.set("trace.wall_us_per_emu_s", 1e6/measured.rates().median())
	// The untraced twin of this loop is the digest prefix above.
	r.set("trace.overhead_ratio", stepUs.median()/prefixStep.median())
	r.set("bench.driver_self_us_per_emu_s", tr.layerSelf()["bench"]/emuS)
	layerMicros(r, 0, 1)
	if opt.traceOut != "" {
		return tr.writeFile(opt.traceOut)
	}
	return nil
}
