// Package sensor is Mercury's emulated-sensor client library
// (Section 2.3). It mirrors the paper's three-call C API —
// opensensor(), readsensor(), closesensor() — so "the programmer can
// treat Mercury as a regular, local sensor device":
//
//	sd, err := sensor.Open("solvermachine:8367", "machine1", "disk_platters")
//	temp, err := sd.Read()
//	sd.Close()
//
// Each Read is one UDP round trip to the solver daemon, analogous to
// probing a hardware sensor; the paper measures ~300 us per read
// against ~500 us for a real SCSI in-disk sensor. Every read travels as
// the wire's sensor read message: a single read names one probe, and
// ReadMany names up to wire.MaxSensorProbes in one round trip. A Reader
// serves a program that reads many sensors of one daemon over one
// socket.
package sensor

import (
	"fmt"
	"sync"

	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/udprpc"
	"github.com/darklab/mercury/internal/units"
	"github.com/darklab/mercury/internal/wire"
)

// Probe names one sensor: a machine and one of its thermal nodes.
type Probe = wire.Probe

// Reader reads the sensors of one solver daemon over one socket: a
// probe at a time, as the paper's readsensor() does, or many probes in
// one round trip per wire.MaxSensorProbes. Concurrent reads take
// turns; a successful read on the real clock allocates nothing.
type Reader struct {
	client *udprpc.Client

	// mu serializes reads, which encode into req and decode into many,
	// and read the reply into the client's buffer.
	mu   sync.Mutex
	req  []byte
	many wire.SensorReplyMany
}

// Options tune the UDP client, which waits udprpc.DefaultTimeout for
// each of udprpc.DefaultRetries attempts.
type Options struct {
	// Clock measures the reply timeouts; nil means the real clock. A
	// virtual clock keeps retry schedules deterministic under warp.
	Clock clock.Clock
}

// Dial connects a Reader to the solver daemon at addr. It reads
// nothing: a bad probe shows up on the read that names it.
func Dial(addr string, opts Options) (*Reader, error) {
	client, err := udprpc.DialClock(addr, 0, 0, opts.Clock)
	if err != nil {
		return nil, fmt.Errorf("sensor: %w", err)
	}
	return &Reader{client: client}, nil
}

// SetTracer attaches a causal tracer to the reader's UDP client so
// ReadCtx exchanges record rpc spans. Call before the first traced
// read.
func (r *Reader) SetTracer(t *causal.Tracer) { r.client.SetTracer(t) }

// ReadCtx returns one node's current emulated temperature: a read of
// one probe. A live trace context makes the request a version-2
// datagram, whose context parents the solver daemon's sensor-serve
// span and, with a tracer attached, the reader's rpc span.
func (r *Reader) ReadCtx(tc causal.Context, machine, node string) (units.Celsius, error) {
	probe := [1]Probe{{Machine: machine, Node: node}}
	var temp [1]units.Celsius
	r.mu.Lock()
	defer r.mu.Unlock()
	err := r.readChunk(tc, probe[:], temp[:])
	return temp[0], err
}

// ReadMany reads every probe, dst[i] receiving probes[i]'s
// temperature, in as few round trips as the wire allows (untraced).
// The first unknown probe fails the read, named in the error; dst is
// then partly written.
func (r *Reader) ReadMany(probes []Probe, dst []units.Celsius) error {
	if len(dst) < len(probes) {
		return fmt.Errorf("sensor: %d probes, room for %d temperatures", len(probes), len(dst))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(probes) > 0 {
		chunk := probes[:wire.SensorReadManyFit(probes)]
		if err := r.readChunk(causal.Context{}, chunk, dst); err != nil {
			return err
		}
		probes, dst = probes[len(chunk):], dst[len(chunk):]
	}
	return nil
}

// readChunk reads the probes of one request into dst, carrying tc.
func (r *Reader) readChunk(tc causal.Context, chunk []Probe, dst []units.Celsius) error {
	fail := func(err error) error {
		if len(chunk) == 1 {
			return fmt.Errorf("sensor: %s/%s: %w", chunk[0].Machine, chunk[0].Node, err)
		}
		return fmt.Errorf("sensor: read of %d probes from %s/%s: %w", len(chunk), chunk[0].Machine, chunk[0].Node, err)
	}
	var err error
	req := wire.SensorReadMany{Probes: chunk, Trace: wire.TraceContext{Trace: tc.Trace, Span: tc.Span}}
	if r.req, err = wire.AppendSensorReadMany(r.req[:0], &req); err != nil {
		return fail(err)
	}
	buf, err := r.client.DoCtx(tc, r.req)
	if err != nil {
		return fail(err)
	}
	rep := &r.many
	if err := wire.UnmarshalSensorReplyManyInto(rep, buf); err != nil {
		return fail(err)
	}
	switch {
	case rep.Status != wire.StatusOK && rep.Failed < len(chunk):
		p := chunk[rep.Failed]
		return fmt.Errorf("sensor: %s/%s: %s", p.Machine, p.Node, rep.Message)
	case rep.Status != wire.StatusOK:
		return fmt.Errorf("sensor: reply blames probe %d of %d: %s", rep.Failed, len(chunk), rep.Message)
	case len(rep.Temps) != len(chunk):
		return fmt.Errorf("sensor: reply carries %d temperatures for %d probes", len(rep.Temps), len(chunk))
	}
	copy(dst, rep.Temps)
	return nil
}

// Close releases the reader's socket.
func (r *Reader) Close() error { return r.client.Close() }

// Sensor is an open emulated temperature sensor: a Reader of its own
// bound to one probe.
type Sensor struct {
	r       *Reader
	machine string
	node    string
}

// Open connects to the solver daemon at addr and validates that the
// machine/node pair exists by performing one read. It mirrors the
// paper's opensensor(host, port, component).
func Open(addr, machine, node string) (*Sensor, error) {
	return OpenOptions(addr, machine, node, Options{})
}

// OpenOptions is Open with explicit client options.
func OpenOptions(addr, machine, node string, opts Options) (*Sensor, error) {
	r, err := Dial(addr, opts)
	if err != nil {
		return nil, err
	}
	s := &Sensor{r: r, machine: machine, node: node}
	if _, err := s.Read(); err != nil {
		r.Close()
		return nil, err
	}
	return s, nil
}

// SetTracer attaches a causal tracer to the sensor's UDP client so
// ReadCtx exchanges record rpc spans. Call before the first traced
// read.
func (s *Sensor) SetTracer(t *causal.Tracer) { s.r.SetTracer(t) }

// Read returns the node's current emulated temperature.
func (s *Sensor) Read() (units.Celsius, error) {
	return s.r.ReadCtx(causal.Context{}, s.machine, s.node)
}

// ReadCtx is Read carrying a trace context (see Reader.ReadCtx).
func (s *Sensor) ReadCtx(tc causal.Context) (units.Celsius, error) {
	return s.r.ReadCtx(tc, s.machine, s.node)
}

// Machine returns the sensor's machine name.
func (s *Sensor) Machine() string { return s.machine }

// Node returns the sensor's node name.
func (s *Sensor) Node() string { return s.node }

// Close releases the sensor's socket.
func (s *Sensor) Close() error { return s.r.Close() }
