package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// check is one correctness assertion's outcome.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// report is everything one run of one workload measured. It is what
// -out appends (one JSON object per line) and -compare reads back.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Quick     bool              `json:"quick,omitempty"`
	Traced    bool              `json:"traced"`
	Seconds   float64           `json:"seconds"`
	Host      hostInfo          `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	SimDigest string            `json:"sim_digest"`
	Counts    map[string]int64  `json:"counts,omitempty"`
	Checks    []check           `json:"checks"`
	Metrics   map[string]metric `json:"metrics"`

	defs map[string]metricDef
}

func newReport(workload string, opt options) *report {
	r := &report{
		Workload: workload,
		Seed:     opt.seed,
		Quick:    opt.quick,
		Traced:   opt.trace,
		Seconds:  opt.seconds,
		Host:     readHost(),
		Counts:   map[string]int64{},
		Metrics:  map[string]metric{},
		defs:     map[string]metricDef{},
	}
	for _, d := range endToEnd {
		r.defs[d.Name] = d
	}
	for _, d := range perLayer {
		r.defs[d.Name] = d
	}
	return r
}

// set records a plain value under a declared metric name. An
// undeclared name is a bug in the benchmark, not in the system.
func (r *report) set(name string, v float64) {
	r.setMetric(name, metric{Value: v})
}

func (r *report) setMetric(name string, m metric) {
	d, ok := r.defs[name]
	if !ok {
		panic("benchmarks: undeclared metric " + name)
	}
	m.Unit = d.Unit
	r.Metrics[name] = m
}

// setTiming records the median of samples under name and, when a
// name_p99 metric is declared, the tail beside it.
func (r *report) setTiming(name string, s samples) {
	r.setMetric(name, s.timing())
	if _, ok := r.defs[name+"_p99"]; ok {
		r.setMetric(name+"_p99", s.p99())
	}
}

// setMeasured records the end-to-end metrics every workload takes from
// its measured intervals.
func (r *report) setMeasured(bs blocks) {
	r.setMetric("emu_s_per_wall_s", bs.rates().rate())
	r.setMetric("cpu_us_per_emu_s", bs.cpuUs().timing())
	r.setMetric("peak_rss_mib", bs.peakRSS())
}

// attempt and fail keep the operation ledger behind failed_op_ratio
// and the result line's attempted/failed.
func (r *report) attempt(n int64) { r.Attempted += n }

func (r *report) fail(n int64, what string) {
	if n <= 0 {
		return
	}
	r.Failed += n
	r.check(what, false, fmt.Sprintf("%d failed", n))
}

func (r *report) check(name string, ok bool, detail string) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: detail})
}

// finish fills every declared metric the workload left unset with 0
// (the "does nothing here" prediction) for the list this run reports,
// and settles Correct.
func (r *report) finish() {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
		ratio := 0.0
		if r.Attempted > 0 {
			ratio = float64(r.Failed) / float64(r.Attempted)
		}
		r.set("failed_op_ratio", ratio)
	}
	for _, d := range defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.set(d.Name, 0)
		}
	}
	r.Correct = r.Failed == 0
	for _, c := range r.Checks {
		if !c.OK {
			r.Correct = false
		}
	}
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.Correct = false
			r.check("metric "+name+" finite", false, fmt.Sprint(m.Value))
		}
	}
}

// print writes the human-readable ledger: every metric by name with
// its unit, sample count and tail.
func (r *report) print(w io.Writer) {
	mode := "untraced (end-to-end)"
	if r.Traced {
		mode = "traced (per-layer)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s\n", r.Workload, r.Seed, mode)
	fmt.Fprintf(w, "host: %s, nproc %d, GOMAXPROCS %d, %s\n",
		r.Host.CPUModel, r.Host.NProc, r.Host.GOMAXPROCS, r.Host.GoVersion)
	fmt.Fprintf(w, "sim_digest %s\n", r.SimDigest)
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		m := r.Metrics[d.Name]
		line := fmt.Sprintf("  %-36s %16.4f %-6s", d.Name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.Tail != 0 {
			line += fmt.Sprintf(" p%g=%.4f", m.TailP, m.Tail)
		} else if m.TailP != 0 {
			line += fmt.Sprintf(" (p%g)", m.TailP)
		}
		fmt.Fprintln(w, line)
	}
	names := make([]string, 0, len(r.Counts))
	for k := range r.Counts {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  count %-30s %d\n", k, r.Counts[k])
	}
	for _, c := range r.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %s %s\n", status, c.Name, c.Detail)
	}
	fmt.Fprintf(w, "attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
}

// digest hashes simulated statistics. Only values the simulation
// defines go in — temperature bits, event kinds and order, virtual
// stamps — never host times or span end stamps.
type digest struct {
	h   hash.Hash
	buf []byte // scratch, so hashing allocates nothing per value
}

func newDigest() *digest { return &digest{h: sha256.New(), buf: make([]byte, 0, 4096)} }

func (d *digest) u64(v uint64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf[:0], v)
	d.h.Write(d.buf)
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) f64s(vs []float64) {
	d.buf = d.buf[:0]
	for _, v := range vs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(v))
		if len(d.buf) == cap(d.buf) {
			d.h.Write(d.buf)
			d.buf = d.buf[:0]
		}
	}
	d.h.Write(d.buf)
}

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	io.WriteString(d.h, s)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:12]) }

// progress is where the run is, for the watchdog: every blocking call
// into the system happens between two marks, so a hang is reported
// with the workload, tick and condition it hung on.
type progress struct {
	mu       sync.Mutex
	workload string
	what     string
	tick     int
	beat     time.Time
}

var prog progress

// mark notes what the run is about to do. A mutex, not atomics: storing
// a string in an atomic.Value allocates, and the kernel workload checks
// that its loop allocates nothing.
func mark(tick int, what string) {
	prog.mu.Lock()
	prog.tick, prog.what, prog.beat = tick, what, time.Now()
	prog.mu.Unlock()
}

// stallLimit is how long one marked step may take in real time before
// the run is declared hung. Generous: the slowest single step is a
// 20 000-machine solver build (about a second).
const stallLimit = 60 * time.Second

// startWatchdog fails the process when a marked step outlives
// stallLimit. It covers waits inside the system under test, which the
// benchmark cannot put a deadline on itself (a sensor read on a
// virtual clock retries only when the clock moves).
func startWatchdog(fatal func(string)) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				prog.mu.Lock()
				w, what, tick, beat := prog.workload, prog.what, prog.tick, prog.beat
				prog.mu.Unlock()
				if !beat.IsZero() && time.Since(beat) > stallLimit {
					fatal(fmt.Sprintf("workload %s hung at tick %d in %q for more than %v",
						w, tick, what, stallLimit))
					return
				}
			}
		}
	}()
	return func() { close(done) }
}

// waitDeadline bounds every poll-wait the benchmark's own drivers do.
const waitDeadline = 30 * time.Second

// waitFor polls cond the way online.Run's harness does — a Gosched
// burst for the common microsecond case, then short escalating sleeps
// so a single-core scheduler can run the daemons — and fails with the
// workload, tick and condition named when the deadline passes.
func waitFor(workload string, tick int, what string, cond func() bool) error {
	mark(tick, what)
	var deadline time.Time
	backoff := time.Microsecond
	for i := 0; !cond(); i++ {
		if i < 64 {
			runtime.Gosched()
			continue
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(waitDeadline)
		}
		time.Sleep(backoff)
		if backoff < 128*time.Microsecond {
			backoff *= 2
		} else if time.Now().After(deadline) {
			return fmt.Errorf("%s: tick %d: timed out after %v waiting for %s", workload, tick, waitDeadline, what)
		}
	}
	return nil
}
