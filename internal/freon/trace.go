package freon

import (
	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/units"
)

// ContextSensors is implemented by sensor backends that can forward a
// causal trace context with each read — the online harness's
// UDP-backed sensors pass it to sensor.ReadCtx so the solver daemon
// records the serving side of the read. Backends that only implement
// Sensors are still traced, just without the server-side span.
type ContextSensors interface {
	Sensors
	TemperatureCtx(tc causal.Context, machine, node string) (units.Celsius, error)
}

// MachineSensors is implemented by sensor backends that read several
// components of one machine in one call — the online harness's UDP
// sensors put them in one datagram. Tempd.Check reads its machine
// through it when the backend has it; temps[i] receives nodes[i]'s
// temperature.
type MachineSensors interface {
	Sensors
	MachineTemperatures(machine string, nodes []string, temps []units.Celsius) error
}

// readMachine reads machine's nodes into temps: in one call when s is
// a MachineSensors, else node by node in order.
func readMachine(s Sensors, machine string, nodes []string, temps []units.Celsius) error {
	if ms, ok := s.(MachineSensors); ok {
		return ms.MachineTemperatures(machine, nodes, temps)
	}
	return readNodes(s, machine, nodes, temps)
}

func readNodes(s Sensors, machine string, nodes []string, temps []units.Celsius) error {
	for i, node := range nodes {
		var err error
		if temps[i], err = s.Temperature(machine, node); err != nil {
			return err
		}
	}
	return nil
}

// emTracer tracks the active thermal-emergency trace per machine for
// one policy instance (Freon or EC). A machine's JustHot report roots
// a new trace with an emergency span; while the emergency lasts,
// sensor reads, PD decisions, admd actuations, and power transitions
// for that machine are parented into the trace; the JustCool report
// closes it with a recovery span. All methods are nil-receiver safe
// (a nil *emTracer means tracing is off) and must be called under the
// owning policy's mutex.
type emTracer struct {
	t      *causal.Tracer
	active map[string]causal.Context
}

func newEmTracer(t *causal.Tracer) *emTracer {
	if t == nil {
		return nil
	}
	return &emTracer{t: t, active: map[string]causal.Context{}}
}

// ctx returns the machine's active emergency context (zero if none).
func (et *emTracer) ctx(machine string) causal.Context {
	if et == nil {
		return causal.Context{}
	}
	return et.active[machine]
}

// report records a tempd report's trace spans — emergency onset on
// JustHot, the PD decision while Hot, recovery on JustCool — and
// returns the context that actions caused by this report should
// parent to.
func (et *emTracer) report(r Report) causal.Context {
	if et == nil {
		return causal.Context{}
	}
	now := et.t.Now()
	ctx := et.active[r.Machine]
	if r.JustHot && ctx.Zero() {
		span := causal.Span{
			Trace:   et.t.NewTrace(r.Machine),
			Kind:    causal.KindEmergency,
			Begin:   now,
			End:     now,
			Machine: r.Machine,
		}
		if len(r.HotNodes) > 0 {
			span.Node = r.HotNodes[0]
			span.Value = float64(r.Temps[span.Node])
		}
		span.ID = et.t.Emit(span)
		ctx = causal.Context{Trace: span.Trace, Span: span.ID}
		et.active[r.Machine] = ctx
	}
	out := ctx
	if r.Hot && !ctx.Zero() {
		id := et.t.Emit(causal.Span{
			Trace:   ctx.Trace,
			Parent:  ctx.Span,
			Kind:    causal.KindPDOutput,
			Begin:   now,
			End:     now,
			Machine: r.Machine,
			Value:   r.Output,
		})
		out = causal.Context{Trace: ctx.Trace, Span: id}
	}
	if r.JustCool && !ctx.Zero() {
		id := et.t.Emit(causal.Span{
			Trace:   ctx.Trace,
			Parent:  ctx.Span,
			Kind:    causal.KindRecovery,
			Begin:   now,
			End:     now,
			Machine: r.Machine,
		})
		delete(et.active, r.Machine)
		out = causal.Context{Trace: ctx.Trace, Span: id}
	}
	return out
}

// action records a point-in-time span (power transition, red-line
// shutdown) under the given context; a zero context or disabled
// tracer is a no-op.
func (et *emTracer) action(tc causal.Context, kind causal.Kind, machine string, value float64) {
	if et == nil || tc.Zero() {
		return
	}
	now := et.t.Now()
	et.t.Emit(causal.Span{
		Trace:   tc.Trace,
		Parent:  tc.Span,
		Kind:    kind,
		Begin:   now,
		End:     now,
		Machine: machine,
		Value:   value,
	})
}

// drop forgets a machine's active emergency without a recovery span —
// used when the machine powers off mid-emergency, so a later boot
// starts a fresh trace.
func (et *emTracer) drop(machine string) {
	if et == nil {
		return
	}
	delete(et.active, machine)
}

// tracedSensors wraps a policy's sensor backend: reads for a machine
// with an active emergency are recorded as sensor-read spans parented
// to the emergency root, and the context is forwarded over the wire
// when the backend supports it. Reads for cool machines pass through
// untouched, a whole machine's at once when the backend is a
// MachineSensors. Calls happen under the owning policy's mutex (tempd
// checks run inside TickPeriod), which also guards the emTracer map.
type tracedSensors struct {
	inner Sensors
	et    *emTracer
}

// wrapSensors attaches the tracing wrapper when tracing is on.
func wrapSensors(s Sensors, et *emTracer) Sensors {
	if et == nil {
		return s
	}
	return tracedSensors{inner: s, et: et}
}

func (ts tracedSensors) Temperature(machine, node string) (units.Celsius, error) {
	ctx := ts.et.ctx(machine)
	if ctx.Zero() {
		return ts.inner.Temperature(machine, node)
	}
	span := causal.Span{
		Trace:   ctx.Trace,
		Parent:  ctx.Span,
		Kind:    causal.KindSensorRead,
		Begin:   ts.et.t.Now(),
		Machine: machine,
		Node:    node,
	}
	// The ID is needed before emission so the wire context can carry
	// it; content-derived IDs make that possible.
	span.ID = causal.SpanID(&span)
	var temp units.Celsius
	var err error
	if cs, ok := ts.inner.(ContextSensors); ok {
		temp, err = cs.TemperatureCtx(causal.Context{Trace: ctx.Trace, Span: span.ID}, machine, node)
	} else {
		temp, err = ts.inner.Temperature(machine, node)
	}
	span.End = ts.et.t.Now()
	span.Value = float64(temp)
	ts.et.t.Emit(span)
	return temp, err
}

// MachineTemperatures implements MachineSensors: a machine with an
// active emergency is read node by node, so each read keeps its span
// and its serving span; any other goes to the backend's batch read
// when it has one.
func (ts tracedSensors) MachineTemperatures(machine string, nodes []string, temps []units.Celsius) error {
	if ts.et.ctx(machine).Zero() {
		return readMachine(ts.inner, machine, nodes, temps)
	}
	return readNodes(ts, machine, nodes, temps)
}
