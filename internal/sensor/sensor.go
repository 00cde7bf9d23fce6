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
// against ~500 us for a real SCSI in-disk sensor. A Reader serves a
// program that reads many sensors of one daemon: one socket for all of
// them, and ReadMany to read up to wire.MaxSensorProbes of them in one
// round trip.
package sensor

import (
	"fmt"
	"sync"
	"time"

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

	// mu serializes reads, which encode into req and decode into rep
	// or many, and read the reply into the client's buffer.
	mu   sync.Mutex
	req  []byte
	rep  wire.SensorReply
	many wire.SensorReplyMany
}

// Options tune the UDP client.
type Options struct {
	// Timeout per read attempt; default 250ms.
	Timeout time.Duration
	// Retries per read; default 3.
	Retries int
	// Clock measures the reply timeouts; nil means the real clock. A
	// virtual clock keeps retry schedules deterministic under warp.
	Clock clock.Clock
}

// Dial connects a Reader to the solver daemon at addr. It reads
// nothing: a bad probe shows up on the read that names it.
func Dial(addr string, opts Options) (*Reader, error) {
	client, err := udprpc.DialClock(addr, opts.Timeout, opts.Retries, opts.Clock)
	if err != nil {
		return nil, fmt.Errorf("sensor: %w", err)
	}
	return &Reader{client: client}, nil
}

// SetTracer attaches a causal tracer to the reader's UDP client so
// ReadCtx exchanges record rpc spans. Call before the first traced
// read.
func (r *Reader) SetTracer(t *causal.Tracer) { r.client.SetTracer(t) }

// ReadCtx returns one node's current emulated temperature. A live
// trace context makes the request a version-2 datagram whose context
// the solver daemon echoes in the reply (and records as a sensor-serve
// span); an untraced read is a version-1 datagram.
func (r *Reader) ReadCtx(tc causal.Context, machine, node string) (units.Celsius, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var err error
	r.req, err = wire.AppendSensorRead(r.req[:0], &wire.SensorRead{
		Machine: machine,
		Node:    node,
		Trace:   wire.TraceContext{Trace: tc.Trace, Span: tc.Span},
	})
	if err != nil {
		return 0, fmt.Errorf("sensor: %s/%s: %w", machine, node, err)
	}
	buf, err := r.client.DoCtx(tc, r.req)
	if err != nil {
		return 0, fmt.Errorf("sensor: %s/%s: %w", machine, node, err)
	}
	if err := wire.UnmarshalSensorReplyInto(&r.rep, buf); err != nil {
		return 0, fmt.Errorf("sensor: %s/%s: %w", machine, node, err)
	}
	if r.rep.Status != wire.StatusOK {
		return 0, fmt.Errorf("sensor: %s/%s: %s", machine, node, r.rep.Message)
	}
	return r.rep.Temp, nil
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
		if err := r.readChunk(chunk, dst); err != nil {
			return err
		}
		probes, dst = probes[len(chunk):], dst[len(chunk):]
	}
	return nil
}

// readChunk reads the probes of one request into dst.
func (r *Reader) readChunk(chunk []Probe, dst []units.Celsius) error {
	fail := func(err error) error {
		return fmt.Errorf("sensor: read of %d probes from %s/%s: %w", len(chunk), chunk[0].Machine, chunk[0].Node, err)
	}
	var err error
	if r.req, err = wire.AppendSensorReadMany(r.req[:0], &wire.SensorReadMany{Probes: chunk}); err != nil {
		return fail(err)
	}
	buf, err := r.client.Do(r.req)
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

// ListMachines asks the daemon for its machine names.
func ListMachines(addr string, opts Options) ([]string, error) {
	return list(addr, "", opts)
}

// ListNodes asks the daemon for a machine's node names.
func ListNodes(addr, machine string, opts Options) ([]string, error) {
	if machine == "" {
		return nil, fmt.Errorf("sensor: machine name required")
	}
	return list(addr, machine, opts)
}

func list(addr, machine string, opts Options) ([]string, error) {
	client, err := udprpc.DialClock(addr, opts.Timeout, opts.Retries, opts.Clock)
	if err != nil {
		return nil, fmt.Errorf("sensor: %w", err)
	}
	defer client.Close()
	req, err := wire.MarshalListNodes(&wire.ListNodes{Machine: machine})
	if err != nil {
		return nil, fmt.Errorf("sensor: %w", err)
	}
	buf, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("sensor: %w", err)
	}
	rep, err := wire.UnmarshalListReply(buf)
	if err != nil {
		return nil, fmt.Errorf("sensor: %w", err)
	}
	if rep.Status != wire.StatusOK {
		return nil, fmt.Errorf("sensor: list %q failed (status %d)", machine, rep.Status)
	}
	return rep.Names, nil
}
