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
// against ~500 us for a real SCSI in-disk sensor.
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

// Sensor is an open emulated temperature sensor.
type Sensor struct {
	client  *udprpc.Client
	machine string
	node    string
	req     []byte // pre-marshaled read request

	// mu serializes reads: a traced request is encoded into treq, and
	// the reply is read into the client's buffer.
	mu   sync.Mutex
	treq []byte
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

// Open connects to the solver daemon at addr and validates that the
// machine/node pair exists by performing one read. It mirrors the
// paper's opensensor(host, port, component).
func Open(addr, machine, node string) (*Sensor, error) {
	return OpenOptions(addr, machine, node, Options{})
}

// OpenOptions is Open with explicit client options.
func OpenOptions(addr, machine, node string, opts Options) (*Sensor, error) {
	client, err := udprpc.DialClock(addr, opts.Timeout, opts.Retries, opts.Clock)
	if err != nil {
		return nil, fmt.Errorf("sensor: %w", err)
	}
	req, err := wire.AppendSensorRead(nil, &wire.SensorRead{Machine: machine, Node: node})
	if err != nil {
		client.Close()
		return nil, fmt.Errorf("sensor: %w", err)
	}
	s := &Sensor{client: client, machine: machine, node: node, req: req}
	if _, err := s.Read(); err != nil {
		client.Close()
		return nil, err
	}
	return s, nil
}

// SetTracer attaches a causal tracer to the sensor's UDP client so
// ReadCtx exchanges record rpc spans. Call before the first traced
// read.
func (s *Sensor) SetTracer(t *causal.Tracer) { s.client.SetTracer(t) }

// Read returns the node's current emulated temperature.
func (s *Sensor) Read() (units.Celsius, error) {
	return s.ReadCtx(causal.Context{})
}

// ReadCtx is Read carrying a trace context: the request travels as a
// version-2 datagram whose context the solver daemon echoes in the
// reply (and records as a sensor-serve span). The untraced path keeps
// using the pre-marshaled version-1 request. Concurrent reads take
// turns; a successful read on the real clock allocates nothing.
func (s *Sensor) ReadCtx(tc causal.Context) (units.Celsius, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	req := s.req
	if !tc.Zero() {
		var err error
		s.treq, err = wire.AppendSensorRead(s.treq[:0], &wire.SensorRead{
			Machine: s.machine,
			Node:    s.node,
			Trace:   wire.TraceContext{Trace: tc.Trace, Span: tc.Span},
		})
		if err != nil {
			return 0, fmt.Errorf("sensor: %s/%s: %w", s.machine, s.node, err)
		}
		req = s.treq
	}
	buf, err := s.client.DoCtx(tc, req)
	if err != nil {
		return 0, fmt.Errorf("sensor: %s/%s: %w", s.machine, s.node, err)
	}
	var rep wire.SensorReply
	if err := wire.UnmarshalSensorReplyInto(&rep, buf); err != nil {
		return 0, fmt.Errorf("sensor: %s/%s: %w", s.machine, s.node, err)
	}
	if rep.Status != wire.StatusOK {
		return 0, fmt.Errorf("sensor: %s/%s: %s", s.machine, s.node, rep.Message)
	}
	return rep.Temp, nil
}

// Machine returns the sensor's machine name.
func (s *Sensor) Machine() string { return s.machine }

// Node returns the sensor's node name.
func (s *Sensor) Node() string { return s.node }

// Close releases the sensor's socket.
func (s *Sensor) Close() error { return s.client.Close() }

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
