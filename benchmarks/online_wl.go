package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/online"
	"github.com/darklab/mercury/internal/recordlog"
)

// room64Script is a two-inlet emergency at t=60 s, early enough that a
// 150 s run spends most of its time managing it.
const room64Script = `#!/bin/bash
sleep 60
fiddle machine1 temperature inlet 38.6
fiddle machine3 temperature inlet 35.6
`

func fig11Spec(quick bool) onlineSpec {
	sp := onlineSpec{name: "fig11-stack", machines: 4, duration: 2000 * time.Second,
		script: online.Fig11Script, observers: true}
	if quick {
		// Long enough to cross the t=480 s emergency and a few Freon
		// periods after it.
		sp.duration = 600 * time.Second
	}
	return sp
}

func room64Spec(quick bool) onlineSpec {
	sp := onlineSpec{name: "room64-batch", machines: 64, duration: 150 * time.Second,
		script: room64Script, batch: true}
	if quick {
		sp.machines, sp.duration = 16, 90*time.Second
	}
	return sp
}

// runRep runs the spec once through online.Run, capturing into its own
// directory under tmp (removed by the caller with tmp).
func runRep(sp onlineSpec, seed int64, tmp string, i int) (blockStat, *online.Result, string, error) {
	dir := filepath.Join(tmp, fmt.Sprintf("%s-rep%d", sp.name, i))
	mark(i, "online.Run repetition")
	// Every repetition starts from a collected heap, so its time, its
	// allocation count and its peak memory do not depend on where the
	// previous repetition left the collector.
	runtime.GC()
	var res *online.Result
	b, err := measure(float64(sp.secs()), func() (err error) {
		res, err = online.Run(sp.runConfig(seed, dir))
		return err
	})
	if err != nil {
		return b, nil, dir, fmt.Errorf("%s: repetition %d: %w", sp.name, i, err)
	}
	return b, res, dir, nil
}

// accountRep books one repetition's operations: every emulated second,
// utilization report and sensor read it should have completed, against
// what the daemons say went wrong.
func accountRep(sp onlineSpec, r *report, res *online.Result, digestOK bool) {
	secs := int64(sp.secs())
	r.attempt(secs + secs*int64(sp.machines) + int64(res.SensorReads))
	r.fail(int64(res.MissedTicks), sp.name+": missed ticks")
	r.fail(int64(res.RecordDrops), sp.name+": recorder drops")
	if short := secs*int64(sp.machines) - int64(res.UtilUpdates); short > 0 {
		r.fail(short, sp.name+": utilization reports not applied")
	}
	if !digestOK {
		r.fail(1, sp.name+": repetition digest differs")
	}
}

// measureSetup boots and tears down the rig n times and reports the
// median boot; teardown is not timed.
func measureSetup(sp onlineSpec, seed int64, tmp string, n int) (samples, *stack, error) {
	var boots samples
	var last *stack
	for i := 0; i < n; i++ {
		dir := filepath.Join(tmp, fmt.Sprintf("%s-boot%d", sp.name, i))
		if sp.observers {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, nil, err
			}
		}
		mark(i, "stack boot")
		runtime.GC()
		t0 := time.Now()
		st, err := bootStack(sp, seed, dir)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: boot %d: %w", sp.name, i, err)
		}
		boots.add(time.Since(t0).Seconds())
		st.close()
		os.RemoveAll(dir)
		last = st
	}
	return boots, last, nil
}

// runOnlineUntraced produces the end-to-end numbers: repetitions of
// online.Run, nothing of the benchmark's inside the timed interval.
func runOnlineUntraced(sp onlineSpec, opt options, r *report) error {
	boots, minReps := 15, 5
	if opt.quick {
		boots, minReps = 3, 2
	}
	setup, _, err := measureSetup(sp, opt.seed, opt.tmp, boots)
	if err != nil {
		return err
	}
	r.setMetric("setup_s", setup.timing())

	// room64-batch's reference: the same room with per-machine
	// monitords must simulate exactly what the batched one does.
	want := ""
	if sp.batch {
		ref := sp
		ref.batch = false
		mark(0, "unbatched reference run")
		res, err := online.Run(ref.runConfig(opt.seed, ""))
		if err != nil {
			return fmt.Errorf("%s: unbatched reference: %w", sp.name, err)
		}
		want = statsOf(res).digest()
	}

	var reps []blockStat
	differ := 0
	start := time.Now()
	for i := 0; i <= minReps || time.Since(start).Seconds() < opt.seconds; i++ {
		if i == 1 {
			start = time.Now()
		}
		rep, res, dir, err := runRep(sp, opt.seed, opt.tmp, i)
		if err != nil {
			return err
		}
		got := statsOf(res).digest()
		if want == "" {
			want = got
		}
		if got != want {
			differ++
		}
		accountRep(sp, r, res, got == want)
		r.Counts["solverd.util_updates"] = int64(res.UtilUpdates)
		r.Counts["solverd.solver_steps"] = int64(res.SolverSteps)
		if i == 0 {
			// The first repetition warms the process (page faults,
			// lazily built tables); it is checked but not timed.
			if sp.observers {
				checkReplay(sp, r, res.RecordPath)
			}
		} else {
			reps = append(reps, rep)
		}
		os.RemoveAll(dir)
	}
	r.SimDigest = want
	what := "all repetitions share one sim_digest"
	if sp.batch {
		what = "every repetition's sim_digest equals the unbatched reference run's"
	}
	r.check(what, differ == 0, fmt.Sprintf("%d repetitions, %d differ", len(reps), differ))
	r.setMeasured(reps)
	r.Counts["repetitions"] = int64(len(reps))
	return nil
}

// checkReplay re-drives the first repetition's capture through a fresh
// solver and requires a bit-perfect match.
func checkReplay(sp onlineSpec, r *report, path string) {
	const name = "first repetition's capture replays bit-identically"
	mark(0, "capture replay")
	log, err := recordlog.ReadLog(path)
	if err != nil {
		r.check(name, false, err.Error())
		return
	}
	cm, err := model.DefaultCluster("room", sp.machines)
	if err != nil {
		r.check(name, false, err.Error())
		return
	}
	rr, err := recordlog.Replay(log, cm, recordlog.ReplayConfig{Workers: 1})
	if err != nil {
		r.check(name, false, err.Error())
		return
	}
	r.check(name, rr.Identical() && rr.RowsCompared > 0,
		fmt.Sprintf("%d rows compared, %d mismatches", rr.RowsCompared, rr.MismatchCount()))
}

// runOnline dispatches on the run kind.
func runOnline(sp onlineSpec, opt options, r *report) error {
	if opt.trace {
		return runOnlineTraced(sp, opt, r)
	}
	return runOnlineUntraced(sp, opt, r)
}

// runOnlineTraced produces the per-layer ledger. online.Run is opaque
// from outside, so the traced run uses the ledger driver — the same
// constructors wired in the same per-second order, every call into a
// layer wrapped in a span — and proves it measured the same
// computation by reproducing the untraced run's digest.
func runOnlineTraced(sp onlineSpec, opt options, r *report) error {
	refReps, sideReps, boots := 3, 3, 5
	if opt.quick {
		refReps, sideReps, boots = 1, 1, 2
	}
	secs := float64(sp.secs())

	// Untraced reference: what the ledger must reproduce, and the wall
	// time its layers must add up to.
	var refs blocks
	var ref *online.Result
	gc0 := snap()
	for i := 0; i < refReps; i++ {
		rep, res, dir, err := runRep(sp, opt.seed, opt.tmp, i)
		if err != nil {
			return err
		}
		os.RemoveAll(dir)
		refs, ref = append(refs, rep), res
	}
	gc1 := snap()
	refWall := 1e6 / refs.rates().median() // µs per emu-s
	want := statsOf(ref)
	r.SimDigest = want.digest()
	kemu := float64(refReps) * secs / 1000
	r.setMetric("runtime.allocs_per_emu_s", refs.allocs().timing())
	r.setMetric("runtime.alloc_kib_per_emu_s", refs.allocKiB().timing())
	r.set("gc.cycles", float64(gc1.numGC-gc0.numGC)/kemu)
	r.set("gc.pause_ms", float64(gc1.pauseNs-gc0.pauseNs)/1e6/kemu)
	r.set("causal.spans_per_emu_s", float64(len(ref.Spans))/secs)

	// Ledger repetitions.
	tr := newSpanRec()
	var ledgerWall samples
	var last *stack
	tempsDiffer := 0
	var emuS float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < opt.seconds; i++ {
		dir := filepath.Join(opt.tmp, fmt.Sprintf("%s-ledger%d", sp.name, i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		mark(i, "ledger boot")
		st, err := bootStack(sp, opt.seed, dir)
		if err != nil {
			return fmt.Errorf("%s: ledger boot: %w", sp.name, err)
		}
		st.sens.tr = tr
		t0 := time.Now()
		for sec := 0; sec < sp.secs(); sec++ {
			if err := st.second(sec, tr); err != nil {
				st.close()
				return err
			}
		}
		ledgerWall.add(float64(time.Since(t0).Microseconds()) / secs)
		tr.flush()
		emuS += secs
		if err := st.finishRun(); err != nil {
			st.close()
			return err
		}
		ok := st.stats.tempDigest() == want.tempDigest()
		r.attempt(int64(sp.secs()) + int64(sp.secs()*sp.machines) + st.sens.reads)
		r.fail(st.sens.errs, sp.name+": ledger sensor read errors")
		if !ok {
			tempsDiffer++
			r.fail(1, sp.name+": ledger temperature digest differs from online.Run's")
		}
		if last != nil {
			last.close()
			os.RemoveAll(last.dir)
		}
		last = st
		if !ok {
			break
		}
	}
	defer last.close()
	r.check("ledger driver reproduces online.Run's temperature digest", tempsDiffer == 0,
		fmt.Sprintf("%d ledger repetitions, %s", len(ledgerWall), want.tempDigest()))
	r.check("ledger driver reproduces online.Run's events and alert timeline",
		last.stats.digest() == want.digest(), "")
	r.Counts["ledger_repetitions"] = int64(len(ledgerWall))

	// Layer times from the spans.
	perEmu := func(name string) float64 { return tr.stat(name).total / emuS }
	r.set("webcluster.tick_us_per_emu_s", perEmu("webcluster.tick"))
	r.set("webcluster.requests_per_emu_s", float64(last.requests)/secs)
	r.set("procfs.set_us_per_emu_s", perEmu("procfs.set"))
	r.setTiming("monitord.sample_us", tr.stat("monitord.sample").durs)
	r.set("monitord.self_us_per_emu_s", tr.stat("monitord.sample").self/emuS)
	r.set("solverd.ingest_wait_us_per_emu_s", perEmu("solverd.ingest_wait"))
	r.setTiming("solverd.step_wait_us", tr.stat("solverd.step_wait").durs)
	r.setTiming("sensor.read_us", tr.stat("sensor.read").durs)
	r.set("sensor.reads_per_emu_s", float64(tr.stat("sensor.read").count)/emuS)
	r.setMetric("freon.poll_us", tr.stat("freon.poll").durs.timing())
	r.setMetric("freon.period_us", tr.stat("freon.period").durs.timing())
	r.set("freon.self_us_per_emu_s", (tr.stat("freon.poll").self+tr.stat("freon.period").self)/emuS)
	r.setMetric("clock.advance_us", tr.stat("clock.advance").durs.timing())
	r.set("clock.advances_per_emu_s", float64(tr.stat("clock.advance").count)/emuS)
	r.setMetric("alert.eval_us", tr.stat("alert.eval").durs.timing())
	r.setTiming("tick_wall_us", tr.stat("emu_second").durs)

	self := tr.layerSelf()
	var attributed float64
	for layer, us := range self {
		if layer != "bench" {
			attributed += us / emuS
		}
	}
	r.set("bench.driver_self_us_per_emu_s", self["bench"]/emuS)
	r.setMetric("trace.wall_us_per_emu_s", ledgerWall.timing())
	r.set("trace.overhead_ratio", ledgerWall.median()/refWall)

	// Counts, from the last ledger repetition (they repeat exactly).
	stats := last.srv.Stats()
	r.set("solverd.util_updates", float64(stats.UtilUpdates.Load())/secs)
	r.set("solverd.util_batches", float64(stats.UtilBatches.Load())/secs)
	r.set("solverd.missed_ticks", float64(stats.MissedTicks.Load()))
	r.fail(int64(stats.MissedTicks.Load()), sp.name+": ledger missed ticks")
	r.Counts["solverd.util_updates"] = int64(stats.UtilUpdates.Load())
	r.Counts["solverd.solver_steps"] = int64(stats.SolverSteps.Load())
	var sendErrs uint64
	for _, d := range last.mons {
		sendErrs += d.Errors()
	}
	r.set("monitord.send_errors", float64(sendErrs))
	r.fail(int64(sendErrs), sp.name+": monitord send errors")
	dgrams, bytes := utilTraffic(sp)
	r.set("monitord.datagrams_per_emu_s", dgrams)
	r.set("monitord.bytes_per_emu_s", bytes)
	adj := 0
	for _, m := range last.names {
		adj += last.fr.Admd().Adjustments(m)
	}
	r.set("freon.adjustments", float64(adj))
	if sp.observers {
		r.set("alert.transitions", float64(len(last.stats.alerts)))
		r.set("recordlog.records", float64(last.rec.Written()))
		r.set("recordlog.drops", float64(last.rec.Drops()))
		r.fail(int64(last.rec.Drops()), sp.name+": ledger recorder drops")
		if fi, err := os.Stat(last.rec.Path()); err == nil {
			r.set("recordlog.bytes_per_emu_s", float64(fi.Size())/secs)
		}
		r.set("surrogate.samples", float64(last.surro.Stats().Samples))
	}

	// Side runs and twins.
	r.set("observers.overhead_ratio", 1)
	if sp.observers {
		bare := sp
		bare.observers = false
		var bares blocks
		for i := 0; i < sideReps; i++ {
			rep, _, _, err := runRep(bare, opt.seed, opt.tmp, i)
			if err != nil {
				return err
			}
			bares = append(bares, rep)
		}
		r.set("observers.overhead_ratio", bares.rates().median()/refs.rates().median())
	}
	setup, st, err := measureSetup(sp, opt.seed, opt.tmp, boots)
	if err != nil {
		return err
	}
	r.Counts["setup_boots"] = int64(len(setup))
	r.set("workload.generate_s", st.generateS)
	// What online.Run spends that no layer call accounts for: its wall
	// per emulated second, less its boot, less every layer's self time
	// — goroutine hand-offs and counter polling.
	boot := setup.median() * 1e6 / secs
	r.set("online.boot_us_per_emu_s", boot)
	r.set("online.unattributed_us_per_emu_s", refWall-boot-attributed)
	r.set("solver.build_s", st.buildS)
	var node string
	for node = range last.sens.sensors[last.names[0]] {
		break
	}
	s := last.sens.sensors[last.names[0]][node]
	r.set("sensor.read_allocs", allocsPer(100, func() { s.Read() }))
	r.set("sensor.read_errors", float64(last.sens.errs))
	cm, err := model.DefaultCluster("room", sp.machines)
	if err != nil {
		return err
	}
	if err := solverTwin(r, cm, opt.quick); err != nil {
		return err
	}
	layerMicros(r, sp.machines, 1)
	if opt.traceOut != "" {
		return tr.writeFile(opt.traceOut)
	}
	return nil
}
