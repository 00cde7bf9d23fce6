// Package causal is the tracing layer that connects the hops of the
// thermal control loop: a monitord utilization sample, the UDP
// utilization batch it becomes, the solverd apply and solver step, the sensor
// reads tempd issues, the PD controller's decision, admd's weight and
// connection actuation, and Freon-EC's power transitions. One trace ID
// links a thermal emergency's onset to every action it caused and to
// the recovery, which is what lets mercury-dash measure the paper's
// detect-to-actuate and detect-to-recover latencies end to end.
//
// Spans live in a fixed ring owned by a Tracer, mirroring
// telemetry.EventLog: emission is a mutex, an in-place ring store, and
// nothing else — no allocation, no channel sends. A nil *Tracer is a
// valid, always-disabled tracer; every method is nil-receiver safe so
// instrumented code pays one branch when tracing is off.
//
// Determinism is a hard requirement: the online lockstep harness
// (internal/online) runs with tracing enabled and asserts the span set
// is bit-identical across runs. Therefore nothing here draws from
// rand or the wall clock. Trace IDs hash the injected clock's elapsed
// time with the originating node's name; span IDs hash the span's own
// content. Ring sequence numbers are the only nondeterministic part
// (daemons emit concurrently within a lockstep phase), so Canonical
// returns spans in a content-derived order with Seq cleared — that is
// the form golden tests pin.
package causal

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/darklab/mercury/internal/clock"
)

// Kind classifies a span. Values are stable strings: they appear in
// /spans JSON, golden files, and Chrome trace exports.
type Kind string

// Span kinds, one per hop of the control loop.
const (
	KindSample      Kind = "sample"       // monitord reads its utilization sampler
	KindUtilApply   Kind = "util-apply"   // solverd applies a utilization update
	KindStep        Kind = "solver-step"  // one solver step of every machine
	KindSensorRead  Kind = "sensor-read"  // tempd reads one node via the sensor library
	KindSensorServe Kind = "sensor-serve" // solverd answers a sensor read
	KindRPC         Kind = "rpc"          // one udprpc request/reply exchange
	KindEmergency   Kind = "emergency"    // tempd crosses the high threshold (trace root)
	KindPDOutput    Kind = "pd-output"    // the PD controller's decision while hot
	KindWeight      Kind = "weight"       // admd changes an LVS weight
	KindConnCap     Kind = "conn-cap"     // admd caps a machine's connections
	KindClassBlock  Kind = "class-block"  // admd blocks a request class
	KindRelease     Kind = "release"      // admd releases all restrictions
	KindRedLine     Kind = "redline"      // traditional policy's hard shutdown
	KindRecovery    Kind = "recovery"     // all nodes back below the low threshold
	KindPowerOn     Kind = "power-on"     // Freon-EC boots a machine
	KindPowerOff    Kind = "power-off"    // Freon-EC powers a machine down
	KindDrain       Kind = "drain"        // Freon-EC begins draining a machine
)

// Span is one clock-stamped hop of a trace. Begin and End are
// durations since the tracer's construction, read from the injected
// clock; under clock.Virtual they are bit-identical across runs.
type Span struct {
	Seq     uint64        `json:"seq"` // ring sequence, the /spans?from= cursor
	Trace   uint64        `json:"trace"`
	ID      uint64        `json:"id"`
	Parent  uint64        `json:"parent,omitempty"`
	Kind    Kind          `json:"kind"`
	Begin   time.Duration `json:"begin_ns"`
	End     time.Duration `json:"end_ns"`
	Machine string        `json:"machine,omitempty"`
	Node    string        `json:"node,omitempty"` // thermal node, or admd's request class
	Value   float64       `json:"value,omitempty"`
	Step    uint64        `json:"step,omitempty"` // solver step count at emission
}

// String renders a span on one line, in the style of
// telemetry.Event.String — the form the Figure 11 trace golden pins.
// Seq is omitted (it is not deterministic); IDs print as fixed-width
// hex so the golden lines up.
func (s Span) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%gs %s trace=%016x id=%016x", s.Begin.Seconds(), s.Kind, s.Trace, s.ID)
	if s.Parent != 0 {
		fmt.Fprintf(&b, " parent=%016x", s.Parent)
	}
	if s.End > s.Begin {
		fmt.Fprintf(&b, " dur=%gs", (s.End - s.Begin).Seconds())
	}
	if s.Machine != "" {
		b.WriteString(" machine=" + s.Machine)
	}
	if s.Node != "" {
		b.WriteString(" node=" + s.Node)
	}
	if s.Value != 0 {
		b.WriteString(" value=" + strconv.FormatFloat(s.Value, 'g', -1, 64))
	}
	if s.Step != 0 {
		fmt.Fprintf(&b, " step=%d", s.Step)
	}
	return b.String()
}

// Context is the trace context that crosses process hops: it rides in
// the trailer of version-2 utilization batch and sensor datagrams
// (internal/wire).
type Context struct {
	Trace uint64
	Span  uint64
}

// Zero reports whether the context carries no trace.
func (c Context) Zero() bool { return c == Context{} }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

func mixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	// Separator so ("ab","c") and ("a","bc") hash apart.
	h ^= 0xff
	h *= fnvPrime
	return h
}

// TraceID derives a trace identifier from a clock reading and the
// originating node's name. Distinct nodes starting traces at the same
// virtual instant get distinct IDs; the same node at the same instant
// gets the same ID on every run. Never zero (zero means "no trace").
func TraceID(at time.Duration, node string) uint64 {
	h := mixString(mix(fnvOffset, uint64(at)), node)
	if h == 0 {
		h = 1
	}
	return h
}

// SpanID derives a span identifier from the span's content (every
// field except Seq, ID, and End — those are unknown or unstable at
// the point a child needs its parent's ID). IDs must not come from a
// shared counter: daemons emit concurrently within a lockstep phase,
// so counter order — unlike content — is not deterministic. Step is
// included so catch-up solver steps sharing one virtual instant still
// get distinct IDs.
func SpanID(s *Span) uint64 {
	h := mix(fnvOffset, s.Trace)
	h = mix(h, s.Parent)
	h = mixString(h, string(s.Kind))
	h = mixString(h, s.Machine)
	h = mixString(h, s.Node)
	h = mix(h, uint64(s.Begin))
	h = mix(h, s.Step)
	h = mix(h, math.Float64bits(s.Value))
	if h == 0 {
		h = 1
	}
	return h
}

// Tracer records spans into a fixed ring. The zero of *Tracer (nil)
// is a disabled tracer: Emit, Now, and NewTrace are no-ops, so
// instrumented hot paths guard with a single nil check.
type Tracer struct {
	clk   clock.Clock
	epoch time.Time

	mu   sync.Mutex
	ring []Span
	next int    // ring slot for the next span
	n    int    // spans currently retained
	seq  uint64 // total spans ever emitted
	sink func(Span)
}

// NewTracer returns a tracer retaining the last capacity spans,
// stamped from clk (which must not be nil; pass clock.Real{} outside
// tests). If capacity <= 0 a default of 4096 is used.
func NewTracer(capacity int, clk clock.Clock) *Tracer {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Tracer{clk: clk, epoch: clk.Now(), ring: make([]Span, capacity)}
}

// Enabled reports whether spans are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Now returns the tracer's clock reading as a duration since its
// construction, or 0 when disabled.
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return t.clk.Now().Sub(t.epoch)
}

// NewTrace starts a trace rooted at node, deriving the ID from the
// current clock reading. Returns 0 when disabled.
func (t *Tracer) NewTrace(node string) uint64 {
	if t == nil {
		return 0
	}
	return TraceID(t.Now(), node)
}

// Emit records a finished span and returns its ID. If s.ID is zero it
// is derived from the span's content via SpanID; if s.End precedes
// s.Begin it is clamped to s.Begin. No-op (returning 0) when
// disabled. Emit does not allocate.
func (t *Tracer) Emit(s Span) uint64 {
	if t == nil {
		return 0
	}
	if s.ID == 0 {
		s.ID = SpanID(&s)
	}
	if s.End < s.Begin {
		s.End = s.Begin
	}
	t.mu.Lock()
	t.seq++
	s.Seq = t.seq
	t.ring[t.next] = s
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
	}
	if t.n < len(t.ring) {
		t.n++
	}
	if t.sink != nil {
		t.sink(s)
	}
	t.mu.Unlock()
	return s.ID
}

// SetSink installs a function called once per emitted span, after Seq
// and ID are assigned, under the tracer's lock so the sink observes
// strict sequence order. The flight recorder (internal/recordlog)
// hangs its durable capture here; the sink must never block. No-op on
// a disabled (nil) tracer. Pass nil to detach.
func (t *Tracer) SetSink(sink func(Span)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sink = sink
	t.mu.Unlock()
}

// Seq returns the sequence number of the most recent span (0 when none
// or disabled).
func (t *Tracer) Seq() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Len returns the number of retained spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Since returns retained spans with Seq > after, oldest first. Spans
// older than the ring have been dropped silently — callers polling
// /spans?from= see the survivors, like EventLog.Since.
func (t *Tracer) Since(after uint64) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n == 0 || t.seq <= after {
		return nil
	}
	want := t.seq - after
	if want > uint64(t.n) {
		want = uint64(t.n)
	}
	out := make([]Span, 0, want)
	start := t.next - t.n
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.n; i++ {
		s := t.ring[(start+i)%len(t.ring)]
		if s.Seq > after {
			out = append(out, s)
		}
	}
	return out
}

// Canonical returns every retained span with Seq cleared, sorted in a
// content-derived total order and deduplicated by full content.
// Concurrent emitters make ring order nondeterministic even under the
// virtual clock, so this is the form determinism tests compare and
// golden files pin. The dedup matters for horizontally sharded runs:
// every region's solverd emits the same content-derived step span for
// tick T, and collapsing those copies is exactly what makes an N-shard
// span set bit-identical to the single-solver golden.
func (t *Tracer) Canonical() []Span {
	spans := t.Since(0)
	for i := range spans {
		spans[i].Seq = 0
	}
	Sort(spans)
	out := spans[:0]
	for i := range spans {
		if i == 0 || spans[i] != spans[i-1] {
			out = append(out, spans[i])
		}
	}
	return out
}

// Sort orders spans by (Begin, Trace, Kind, Machine, Node, ID) — a
// total order over deterministic fields only.
func Sort(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := &spans[i], &spans[j]
		if a.Begin != b.Begin {
			return a.Begin < b.Begin
		}
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.ID < b.ID
	})
}
