package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef declares one metric: the name BENCHMARK.json lists it
// under, its unit and which direction is better. Bound is the
// regression bound (share of the baseline median) and is set only for
// end-to-end metrics.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is what a user of the emulator sees: how fast emulated time
// runs, what it costs the host it shares with the software under test,
// and how long the stack takes to come up. bench_test.go pins this
// table to BENCHMARK.json.
//
// allocs_per_emu_s, alloc_kib_per_emu_s and failed_op_ratio are
// per-layer metrics (runtime.* and failed_op_ratio below), not
// end-to-end ones: the first two are exactly 0 on room-kernel and the
// third is 0 everywhere, and a regression bound that is a share of a
// zero median cannot be evaluated. Failures still gate every run
// through the result line's attempted/failed/correct fields.
var endToEnd = []metricDef{
	{"emu_s_per_wall_s", "1/s", "higher", 0.20},
	{"cpu_us_per_emu_s", "us", "lower", 0.20},
	{"peak_rss_mib", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the ledger: one line per layer boundary the benchmark
// can time or count from outside. Layer = package name. A metric a
// workload does not exercise reads 0 there — that is the prediction
// ("nothing on rack-sharded/room-kernel"), recorded rather than
// omitted.
var perLayer = []metricDef{
	// webcluster / lvs / workload
	{"webcluster.tick_us_per_emu_s", "us", "lower", 0},
	{"webcluster.requests_per_emu_s", "count", "higher", 0},
	{"lvs.assign_ns", "ns", "lower", 0},
	{"workload.generate_s", "s", "lower", 0},
	// monitord / procfs / wire
	{"monitord.sample_us", "us", "lower", 0},
	{"monitord.sample_us_p99", "us", "lower", 0},
	{"monitord.self_us_per_emu_s", "us", "lower", 0},
	{"monitord.datagrams_per_emu_s", "count", "lower", 0},
	{"monitord.bytes_per_emu_s", "count", "lower", 0},
	{"monitord.send_errors", "count", "lower", 0},
	{"procfs.set_us_per_emu_s", "us", "lower", 0},
	{"procfs.sample_allocs", "count", "lower", 0},
	{"wire.util_marshal_ns", "ns", "lower", 0},
	{"wire.util_unmarshal_ns", "ns", "lower", 0},
	{"wire.batch_marshal_ns", "ns", "lower", 0},
	{"wire.batch_unmarshal_ns", "ns", "lower", 0},
	{"wire.boundary_marshal_ns", "ns", "lower", 0},
	// solverd
	{"solverd.ingest_wait_us_per_emu_s", "us", "lower", 0},
	{"solverd.step_wait_us", "us", "lower", 0},
	{"solverd.step_wait_us_p99", "us", "lower", 0},
	{"solverd.util_updates", "count", "higher", 0},
	{"solverd.util_batches", "count", "higher", 0},
	{"solverd.missed_ticks", "count", "lower", 0},
	{"solverd.boundary_out", "count", "higher", 0},
	{"solverd.boundary_in", "count", "higher", 0},
	{"solverd.boundary_missed", "count", "lower", 0},
	{"solverd.shard_overhead_ratio", "ratio", "lower", 0},
	// solver (kernel)
	{"solver.step_us", "us", "lower", 0},
	{"solver.step_us_p99", "us", "lower", 0},
	{"solver.machine_steps_per_s", "1/s", "higher", 0},
	{"solver.set_util_ns", "ns", "lower", 0},
	{"solver.read_all_temps_us", "us", "lower", 0},
	{"solver.step_allocs", "count", "lower", 0},
	{"solver.parallel_speedup", "ratio", "higher", 0},
	{"solver.build_s", "s", "lower", 0},
	// sensor
	{"sensor.read_us", "us", "lower", 0},
	{"sensor.read_us_p99", "us", "lower", 0},
	{"sensor.reads_per_emu_s", "count", "lower", 0},
	{"sensor.read_allocs", "count", "lower", 0},
	{"sensor.read_errors", "count", "lower", 0},
	// freon
	{"freon.poll_us", "us", "lower", 0},
	{"freon.period_us", "us", "lower", 0},
	{"freon.self_us_per_emu_s", "us", "lower", 0},
	{"freon.adjustments", "count", "higher", 0},
	// clock / harness
	{"clock.advance_us", "us", "lower", 0},
	{"clock.advances_per_emu_s", "count", "lower", 0},
	{"online.boot_us_per_emu_s", "us", "lower", 0},
	{"online.unattributed_us_per_emu_s", "us", "lower", 0},
	{"bench.driver_self_us_per_emu_s", "us", "lower", 0},
	{"bench.reference_us_per_emu_s", "us", "lower", 0},
	// observers
	{"alert.eval_us", "us", "lower", 0},
	{"alert.transitions", "count", "higher", 0},
	{"recordlog.records", "count", "higher", 0},
	{"recordlog.bytes_per_emu_s", "count", "lower", 0},
	{"recordlog.drops", "count", "lower", 0},
	{"causal.spans_per_emu_s", "count", "lower", 0},
	{"surrogate.samples", "count", "higher", 0},
	{"observers.overhead_ratio", "ratio", "lower", 0},
	// process
	{"runtime.allocs_per_emu_s", "count", "lower", 0},
	{"runtime.alloc_kib_per_emu_s", "KiB", "lower", 0},
	{"gc.cycles", "count", "lower", 0},
	{"gc.pause_ms", "ms", "lower", 0},
	{"tick_wall_us", "us", "lower", 0},
	{"tick_wall_us_p99", "us", "lower", 0},
	{"trace.wall_us_per_emu_s", "us", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"failed_op_ratio", "ratio", "lower", 0},
}

// metric is one reported value. N is the number of samples behind it
// (0 for a plain count); Tail and TailP carry the highest percentile
// that still has ten samples beyond it, when the value is a median of
// timings.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
	TailP float64 `json:"tail_p,omitempty"`
}

// samples collects timings (or any repeated measurement).
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile (0..1) of sorted samples by linear
// interpolation; 0 when empty.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.sorted().quantile(0.5) }

// tailPercentile is the highest of the usual percentiles that has at
// least ten samples beyond it, capped at limit (0 means none
// qualifies: fewer than 40 samples).
func tailPercentile(n int, limit float64) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if p <= limit && float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 0
}

// timing summarizes samples as median + tail.
func (s samples) timing() metric {
	sorted := s.sorted()
	m := metric{Value: sorted.quantile(0.5), N: len(sorted)}
	if p := tailPercentile(len(sorted), 99.9); p > 0 {
		m.TailP, m.Tail = p, sorted.quantile(p/100)
	}
	return m
}

// rate summarizes higher-is-better samples: the median and, as the
// tail, the low percentile that mirrors timing's high one.
func (s samples) rate() metric {
	sorted := s.sorted()
	m := metric{Value: sorted.quantile(0.5), N: len(sorted)}
	if p := tailPercentile(len(sorted), 99.9); p > 0 {
		m.TailP, m.Tail = 100-p, sorted.quantile(1-p/100)
	}
	return m
}

// p99 is the metric behind every *_p99 name: the 99th percentile, or
// the highest lower percentile with ten samples beyond it when there
// are fewer than a thousand samples (TailP says which).
func (s samples) p99() metric {
	sorted := s.sorted()
	m := metric{N: len(sorted)}
	if p := tailPercentile(len(sorted), 99); p > 0 {
		m.TailP, m.Value = p, sorted.quantile(p/100)
	} else {
		m.TailP, m.Value = 100, sorted.quantile(1)
	}
	return m
}

// procSnap is a point-in-time reading of what the process has cost
// the host so far.
type procSnap struct {
	wall    time.Time
	cpu     time.Duration // user+sys, getrusage
	mallocs uint64
	bytes   uint64
	numGC   uint32
	pauseNs uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM;
// getrusage reports it in KiB on Linux) since the last resetPeakRSS.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// resetPeakRSS restarts the high-water mark from the current resident
// set (Linux: "5" to /proc/self/clear_refs), so it can be sampled once
// per repetition. False where the kernel or the sandbox does not allow
// the reset.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// blockStat is one measured interval — an online.Run repetition or a
// block of ticks — per emulated second.
type blockStat struct {
	rate      float64 // emulated seconds per wall second
	cpuUs     float64 // process CPU
	allocs    float64 // heap allocations
	allocKiB  float64
	peakMiB   float64 // resident-set high-water mark within the interval
	peakReset bool    // the mark was restarted before the interval
}

// measure runs fn, which emulates emuS seconds, between two snaps.
func measure(emuS float64, fn func() error) (blockStat, error) {
	reset := resetPeakRSS()
	before := snap()
	err := fn()
	wall := time.Since(before.wall).Seconds()
	after := snap()
	return blockStat{
		rate:      emuS / wall,
		cpuUs:     (after.cpu - before.cpu).Seconds() * 1e6 / emuS,
		allocs:    float64(after.mallocs-before.mallocs) / emuS,
		allocKiB:  float64(after.bytes-before.bytes) / 1024 / emuS,
		peakMiB:   peakRSSMiB(),
		peakReset: reset,
	}, err
}

// blocks is a run's measured intervals, read a column at a time.
type blocks []blockStat

func (bs blocks) column(f func(blockStat) float64) samples {
	s := make(samples, len(bs))
	for i, b := range bs {
		s[i] = f(b)
	}
	return s
}

func (bs blocks) rates() samples  { return bs.column(func(b blockStat) float64 { return b.rate }) }
func (bs blocks) cpuUs() samples  { return bs.column(func(b blockStat) float64 { return b.cpuUs }) }
func (bs blocks) allocs() samples { return bs.column(func(b blockStat) float64 { return b.allocs }) }
func (bs blocks) allocKiB() samples {
	return bs.column(func(b blockStat) float64 { return b.allocKiB })
}

// peakRSS summarizes the blocks' high-water marks. The mark over a
// whole process is one transient — whichever boot's request trace
// happened to outgrow the collector furthest — and differs by a tenth
// between identical runs. The marks of single repetitions fall on a
// few levels one heap growth step (2 MiB) apart, so their median hops
// between levels while their mean is steady: the mean is reported.
// Where the mark could not be reset, the readings are the lifetime
// mark and the last (largest) stands.
func (bs blocks) peakRSS() metric {
	sum := 0.0
	for _, b := range bs {
		if !b.peakReset {
			return metric{Value: bs[len(bs)-1].peakMiB, N: 1}
		}
		sum += b.peakMiB
	}
	return metric{Value: sum / float64(len(bs)), N: len(bs)}
}

// snap reads the counters. ReadMemStats stops the world for a few tens
// of microseconds, so callers snap at repetition/block boundaries,
// outside the interval whose wall time they report.
func snap() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		cpu:     cpuTime(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		numGC:   ms.NumGC,
		pauseNs: ms.PauseTotalNs,
		wall:    time.Now(),
	}
}

// mallocs reads just the allocation counter, for AllocsPerRun-style
// measurements.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// allocsPer returns the mean allocations per call of fn over n calls.
// The counter is process-wide, so a goroutine still winding down
// elsewhere can add to one window; the smallest of three windows is
// what fn itself allocates.
func allocsPer(n int, fn func()) float64 {
	fn() // warm: first-call lazy initialisation is not the steady state
	best := math.Inf(1)
	for round := 0; round < 3; round++ {
		before := mallocs()
		for i := 0; i < n; i++ {
			fn()
		}
		if got := float64(mallocs()-before) / float64(n); got < best {
			best = got
		}
	}
	return best
}

// nsPer times n calls of fn and returns mean nanoseconds per call.
func nsPer(n int, fn func()) float64 {
	fn()
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// hostInfo is the header every report carries, so a number is never
// read without the machine it was measured on.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func readHost() hostInfo {
	h := hostInfo{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
