package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mercury_ops_total", "ops")
	for i := 0; i < 5; i++ {
		c.Inc()
	}
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("mercury_temp_celsius", "temp")
	g.Set(21.5)
	g.Set(22)
	if g.Value() != 22 {
		t.Errorf("gauge = %v, want 22", g.Value())
	}
	// Re-registration returns the same instrument.
	if r.Counter("mercury_ops_total", "ops") != c {
		t.Error("re-registering a counter returned a new instrument")
	}
}

func TestRegistryConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{1, 10})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Set(float64(j))
				h.Observe(float64(j % 20))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 999 {
		t.Errorf("gauge = %v, want 999 (every writer's last value)", g.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "", []float64{0.1, 1, 10})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
	for i := 0; i < 90; i++ {
		h.Observe(0.05) // first bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(5) // third bucket
	}
	if q := h.Quantile(0.5); q <= 0 || q > 0.1 {
		t.Errorf("p50 = %v, want within first bucket", q)
	}
	if q := h.Quantile(0.95); q <= 1 || q > 10 {
		t.Errorf("p95 = %v, want within (1, 10]", q)
	}
	h.Observe(1000) // +Inf bucket
	if q := h.Quantile(0.9999); q != 10 {
		t.Errorf("+Inf-bucket quantile = %v, want clamp to 10", q)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mercury_util_updates_total", "utilization updates")
	c.Inc()
	c.Inc()
	c.Inc()
	r.Gauge(`mercury_node_temp_celsius{machine="m1",node="cpu"}`, "node temp").Set(42.5)
	r.Gauge(`mercury_node_temp_celsius{machine="m1",node="disk"}`, "node temp").Set(30)
	r.GaugeFunc("mercury_up", "always one", func() float64 { return 1 })
	h := r.Histogram("mercury_step_seconds", "step latency", []float64{0.001, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE mercury_util_updates_total counter",
		"mercury_util_updates_total 3",
		`mercury_node_temp_celsius{machine="m1",node="cpu"} 42.5`,
		`mercury_node_temp_celsius{machine="m1",node="disk"} 30`,
		"mercury_up 1",
		`mercury_step_seconds_bucket{le="0.001"} 1`,
		`mercury_step_seconds_bucket{le="0.1"} 2`,
		`mercury_step_seconds_bucket{le="+Inf"} 2`,
		"mercury_step_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// The two labeled series share one TYPE header.
	if got := strings.Count(out, "# TYPE mercury_node_temp_celsius"); got != 1 {
		t.Errorf("TYPE header for labeled family emitted %d times, want 1", got)
	}
}

func TestTempTable(t *testing.T) {
	probes := []TempProbe{{"m1", "cpu"}, {"m1", "disk"}, {"m2", "cpu"}}
	tbl := NewTempTable(probes, 4)
	for k := 0; k < 6; k++ {
		k := k
		tbl.Sample(time.Duration(k)*time.Second, func(dst []float64) int {
			for i := range dst {
				dst[i] = float64(k*10 + i)
			}
			return len(dst)
		})
	}
	at, vals := tbl.Series(1)
	if len(at) != 4 || at[0] != 2*time.Second || at[3] != 5*time.Second {
		t.Fatalf("Series times = %v", at)
	}
	want := []float64{21, 31, 41, 51}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("Series(1) vals = %v, want %v", vals, want)
		}
	}
	sums := tbl.Summaries()
	if len(sums) != 3 {
		t.Fatalf("summaries = %d", len(sums))
	}
	s := sums[2] // probe m2/cpu: values 22, 32, 42, 52
	if s.Min != 22 || s.Max != 52 || s.Last != 52 || s.Mean != 37 {
		t.Errorf("summary = %+v", s)
	}
	if s.P50 != 37 {
		t.Errorf("p50 = %v, want 37", s.P50)
	}
	// A fresh table has no summaries: NaN placeholders would poison
	// the /state JSON encoding.
	if empty := NewTempTable(probes, 4).Summaries(); len(empty) != 0 {
		t.Errorf("empty table summaries = %+v, want none", empty)
	}
}

func TestTempTableSampleDoesNotAllocate(t *testing.T) {
	probes := make([]TempProbe, 100)
	for i := range probes {
		probes[i] = TempProbe{Machine: "m", Node: "n"}
	}
	tbl := NewTempTable(probes, 8)
	fill := func(dst []float64) int { return len(dst) }
	allocs := testing.AllocsPerRun(100, func() {
		tbl.Sample(time.Second, fill)
	})
	if allocs != 0 {
		t.Errorf("Sample allocates %v per call, want 0", allocs)
	}
}

func TestEventLog(t *testing.T) {
	l := NewEventLog(4, nil)
	ch, cancel := l.Subscribe(8)
	defer cancel()
	for i := 0; i < 6; i++ {
		l.Emit(EvPDOutput, "m1", "", float64(i), "")
	}
	if l.Seq() != 6 {
		t.Errorf("seq = %d, want 6", l.Seq())
	}
	got := l.Since(0)
	if len(got) != 4 {
		t.Fatalf("retained %d events, want 4 (capacity)", len(got))
	}
	if got[0].Seq != 3 || got[3].Seq != 6 {
		t.Errorf("retained seqs %d..%d, want 3..6", got[0].Seq, got[3].Seq)
	}
	if len(l.Since(5)) != 1 {
		t.Errorf("Since(5) = %d events, want 1", len(l.Since(5)))
	}
	// Subscriber saw everything (buffer was large enough).
	for i := 0; i < 6; i++ {
		select {
		case e := <-ch:
			if e.Value != float64(i) {
				t.Errorf("subscriber event %d value = %v", i, e.Value)
			}
		default:
			t.Fatalf("subscriber missing event %d", i)
		}
	}
}

func TestEventString(t *testing.T) {
	e := Event{Seq: 9, At: 480500 * time.Millisecond, Type: EvEmergencyRaised,
		Machine: "machine1", Node: "cpu", Value: 67.25}
	want := "t=480.5s emergency-raised machine=machine1 node=cpu value=67.25"
	if got := e.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// TestEventLogWraparoundWithSink hammers a small ring from several
// goroutines with a sink attached — the configuration every recording
// daemon runs (EventLog teed into the flight recorder) — and checks
// under -race that the sink saw every event exactly once and the ring
// retains the newest window in order after wrapping many times.
func TestEventLogWraparoundWithSink(t *testing.T) {
	l := NewEventLog(4, nil)
	var sinkMu sync.Mutex
	seen := make(map[uint64]int)
	l.SetSink(func(e Event) {
		sinkMu.Lock()
		seen[e.Seq]++
		sinkMu.Unlock()
	})
	const workers, per = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Emit(EvPDOutput, "m1", "", float64(w*per+i), "")
			}
		}(w)
	}
	wg.Wait()
	total := uint64(workers * per)
	if l.Seq() != total {
		t.Fatalf("seq = %d, want %d", l.Seq(), total)
	}
	for seq := uint64(1); seq <= total; seq++ {
		if seen[seq] != 1 {
			t.Errorf("sink saw seq %d %d times, want exactly once", seq, seen[seq])
		}
	}
	got := l.Since(0)
	if len(got) != 4 {
		t.Fatalf("retained %d events after wraparound, want 4", len(got))
	}
	for i, e := range got {
		if e.Seq != total-3+uint64(i) {
			t.Errorf("retained[%d].Seq = %d, want %d", i, e.Seq, total-3+uint64(i))
		}
	}
	// ScanSince walks the same retained window without allocating.
	var scanned []uint64
	last := l.ScanSince(total-4, func(e Event) { scanned = append(scanned, e.Seq) })
	if last != total || len(scanned) != 4 || scanned[0] != total-3 {
		t.Errorf("ScanSince = last %d, events %v, want last %d, seqs %d..%d", last, scanned, total, total-3, total)
	}
}
