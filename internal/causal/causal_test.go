package causal

import (
	"sync"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/clock"
)

func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	if tr != nil {
		t.Fatal("nil tracer reports enabled")
	}
	if got := tr.Now(); got != 0 {
		t.Fatalf("nil Now() = %v, want 0", got)
	}
	if got := tr.NewTrace("m1"); got != 0 {
		t.Fatalf("nil NewTrace() = %d, want 0", got)
	}
	if got := tr.Emit(Span{Kind: KindStep}); got != 0 {
		t.Fatalf("nil Emit() = %d, want 0", got)
	}
	if got := tr.Since(0); got != nil {
		t.Fatalf("nil Since() = %v, want nil", got)
	}
	if got := tr.Canonical(); got != nil {
		t.Fatalf("nil Canonical() = %v, want nil", got)
	}
	if tr.Seq() != 0 || tr.Len() != 0 {
		t.Fatal("nil Seq/Len nonzero")
	}
}

func TestEmitDoesNotAllocate(t *testing.T) {
	tr := NewTracer(64, clock.Real{})
	s := Span{Trace: 7, Kind: KindStep, Machine: "machine1", Begin: time.Second}
	allocs := testing.AllocsPerRun(100, func() {
		tr.Emit(s)
	})
	if allocs != 0 {
		t.Fatalf("Emit allocates %v times per call, want 0", allocs)
	}
	var nilTr *Tracer
	allocs = testing.AllocsPerRun(100, func() {
		nilTr.Emit(s)
	})
	if allocs != 0 {
		t.Fatalf("disabled Emit allocates %v times per call, want 0", allocs)
	}
}

func TestDeterministicIDs(t *testing.T) {
	// Same clock reading + same node => same trace ID; different node
	// or instant => different.
	a := TraceID(5*time.Second, "machine1")
	b := TraceID(5*time.Second, "machine1")
	if a != b {
		t.Fatalf("TraceID not deterministic: %d vs %d", a, b)
	}
	if a == 0 {
		t.Fatal("TraceID returned 0")
	}
	if TraceID(5*time.Second, "machine2") == a {
		t.Fatal("distinct nodes collide")
	}
	if TraceID(6*time.Second, "machine1") == a {
		t.Fatal("distinct instants collide")
	}

	s := Span{Trace: a, Parent: 3, Kind: KindSensorRead, Machine: "machine1", Node: "cpu", Begin: time.Second}
	id1 := SpanID(&s)
	id2 := SpanID(&s)
	if id1 != id2 || id1 == 0 {
		t.Fatalf("SpanID not deterministic or zero: %d vs %d", id1, id2)
	}
	s2 := s
	s2.Kind = KindSensorServe
	if SpanID(&s2) == id1 {
		t.Fatal("distinct kinds collide")
	}
	// Concatenation boundary: ("ab","c") must differ from ("a","bc").
	x := Span{Machine: "ab", Node: "c"}
	y := Span{Machine: "a", Node: "bc"}
	if SpanID(&x) == SpanID(&y) {
		t.Fatal("string boundary collision")
	}
}

func TestRingSinceAndWraparound(t *testing.T) {
	clk := clock.NewVirtual()
	tr := NewTracer(4, clk)
	for i := 0; i < 10; i++ {
		clk.Advance(time.Second)
		tr.Emit(Span{Trace: uint64(i + 1), Kind: KindStep, Begin: tr.Now()})
	}
	if tr.Seq() != 10 {
		t.Fatalf("Seq = %d, want 10", tr.Seq())
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	// Seqs 1..6 fell off the ring: Since(2) returns the retained tail.
	got := tr.Since(2)
	if len(got) != 4 {
		t.Fatalf("Since(2) returned %d spans, want 4", len(got))
	}
	for i, s := range got {
		if want := uint64(7 + i); s.Seq != want {
			t.Fatalf("Since(2)[%d].Seq = %d, want %d", i, s.Seq, want)
		}
	}
	if got := tr.Since(9); len(got) != 1 || got[0].Seq != 10 {
		t.Fatalf("Since(9) = %+v, want exactly seq 10", got)
	}
	if got := tr.Since(10); got != nil {
		t.Fatalf("Since(10) = %+v, want nil", got)
	}
}

func TestEndClampedToBegin(t *testing.T) {
	tr := NewTracer(8, clock.Real{})
	tr.Emit(Span{Kind: KindSample, Begin: 5 * time.Second, End: time.Second})
	s := tr.Since(0)[0]
	if s.End != s.Begin {
		t.Fatalf("End = %v, want clamped to Begin %v", s.End, s.Begin)
	}
}

func TestCanonicalOrderIndependentOfEmitOrder(t *testing.T) {
	spans := []Span{
		{Trace: 2, Kind: KindPDOutput, Machine: "machine1", Begin: 2 * time.Second},
		{Trace: 1, Kind: KindSample, Machine: "machine2", Begin: time.Second},
		{Trace: 1, Kind: KindSample, Machine: "machine1", Begin: time.Second},
		{Trace: 2, Kind: KindEmergency, Machine: "machine1", Begin: 2 * time.Second},
	}
	emit := func(order []int) []Span {
		tr := NewTracer(16, clock.Real{})
		for _, i := range order {
			tr.Emit(spans[i])
		}
		return tr.Canonical()
	}
	a := emit([]int{0, 1, 2, 3})
	b := emit([]int{3, 2, 1, 0})
	if len(a) != len(b) {
		t.Fatalf("length mismatch: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("canonical[%d] differs:\n%+v\n%+v", i, a[i], b[i])
		}
		if a[i].Seq != 0 {
			t.Fatalf("canonical span retains Seq %d", a[i].Seq)
		}
	}
}

func TestConcurrentEmit(t *testing.T) {
	tr := NewTracer(1024, clock.Real{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Emit(Span{Trace: uint64(g + 1), Kind: KindStep, Begin: time.Duration(i)})
				tr.Since(tr.Seq() / 2)
			}
		}(g)
	}
	wg.Wait()
	if tr.Seq() != 1600 {
		t.Fatalf("Seq = %d, want 1600", tr.Seq())
	}
	if tr.Len() != 1024 {
		t.Fatalf("Len = %d, want 1024", tr.Len())
	}
}

func TestVirtualClockStamps(t *testing.T) {
	clk := clock.NewVirtual()
	tr := NewTracer(8, clk)
	clk.Advance(3 * time.Second)
	if tr.Now() != 3*time.Second {
		t.Fatalf("Now = %v, want 3s", tr.Now())
	}
	id := tr.Emit(Span{Trace: tr.NewTrace("machine1"), Kind: KindEmergency, Begin: tr.Now()})
	s := tr.Since(0)[0]
	if s.ID != id || s.Begin != 3*time.Second || s.Trace != TraceID(3*time.Second, "machine1") {
		t.Fatalf("span %+v does not match clock-derived ids", s)
	}
}
