package wire

// This file holds the multi-probe sensor read: one request naming up
// to MaxSensorProbes (machine, node) pairs, answered by one reply that
// carries their temperatures in request order. It is version 1 only:
// a traced read stays on the single-probe MsgSensorRead, whose
// version-2 form carries the context the serving span is parented to,
// so batching reads never changes what a trace records.

import (
	"errors"
	"fmt"
	"slices"

	"github.com/darklab/mercury/internal/units"
)

// MaxSensorProbes bounds the probes of one many-read: the reply's four
// header bytes and one f64 per probe fit MaxReplySize.
const MaxSensorProbes = (MaxReplySize - 4) / 8

// MaxSensorReadManySize bounds an encoded many-read request, matching
// the solver daemon's receive buffer.
const MaxSensorReadManySize = 2048

// Many-read decode errors.
var (
	// ErrNoProbes rejects a many-read (or its OK reply) naming no probe.
	ErrNoProbes = errors.New("wire: sensor read carries no probes")
	// ErrTooManyProbes bounds one many-read datagram; longer lists are
	// chunked by the sender (SensorReadManyFit).
	ErrTooManyProbes = errors.New("wire: too many probes in sensor read")
	// ErrOversize rejects a datagram longer than its message's limit.
	ErrOversize = errors.New("wire: datagram exceeds its size limit")
	// ErrBadFailure rejects a failure reply that carries temperatures
	// or names a probe index no request can have.
	ErrBadFailure = errors.New("wire: malformed failure reply")
)

// Probe names one sensor: a machine and one of its thermal nodes.
type Probe struct {
	Machine string
	Node    string
}

// SensorReadMany asks the solver for several nodes' temperatures in
// one round trip.
type SensorReadMany struct {
	Probes []Probe
}

// SensorReadManyFit returns how many of probes, from the first, one
// request carries: at most MaxSensorProbes, in at most
// MaxSensorReadManySize bytes, and at least one. A sender chunks a
// longer list by it.
func SensorReadManyFit(probes []Probe) int {
	size := 3 // version, type, count
	for i, p := range probes {
		size += 2 + len(p.Machine) + len(p.Node)
		if i == MaxSensorProbes || (i > 0 && size > MaxSensorReadManySize) {
			return i
		}
	}
	return len(probes)
}

// AppendSensorReadMany encodes a many-read request appended to dst. On
// error dst is returned unchanged.
func AppendSensorReadMany(dst []byte, r *SensorReadMany) ([]byte, error) {
	switch {
	case len(r.Probes) == 0:
		return dst, ErrNoProbes
	case len(r.Probes) > MaxSensorProbes:
		return dst, ErrTooManyProbes
	}
	e := traceHeader(dst, MsgSensorReadMany, TraceContext{})
	e.byte(byte(len(r.Probes)))
	for _, p := range r.Probes {
		e.str(p.Machine)
		e.str(p.Node)
	}
	if e.err != nil {
		return dst, e.err
	}
	if n := len(e.buf) - len(dst); n > MaxSensorReadManySize {
		return dst, fmt.Errorf("wire: sensor read needs %d bytes, limit %d", n, MaxSensorReadManySize)
	}
	return e.buf, nil
}

// UnmarshalSensorReadManyInto decodes a many-read request into r,
// reusing its probe storage; intern, when non-nil, maps each machine
// and node name's bytes to the receiver's own string for it. Empty,
// oversized, short and slack-carrying requests are rejected. On error
// r's contents are unspecified.
func UnmarshalSensorReadManyInto(r *SensorReadMany, buf []byte, intern func([]byte) string) error {
	if len(buf) > MaxSensorReadManySize {
		return ErrOversize
	}
	d, err := checkHeader(buf, MsgSensorReadMany)
	if err != nil {
		return err
	}
	n, err := d.byte()
	if err != nil {
		return err
	}
	switch {
	case n == 0:
		return ErrNoProbes
	case int(n) > MaxSensorProbes:
		return ErrTooManyProbes
	}
	r.Probes = slices.Grow(r.Probes[:0], int(n))[:n]
	for i := range r.Probes {
		p := &r.Probes[i]
		if p.Machine, err = d.internStr(intern); err != nil {
			return err
		}
		if p.Node, err = d.internStr(intern); err != nil {
			return err
		}
	}
	if d.pos != len(buf) {
		return ErrTrailingBytes
	}
	return nil
}

// SensorReplyMany answers a SensorReadMany. An OK reply carries one
// temperature per probe, in request order; any other status carries
// none, the index of the first probe that failed, and the reason.
type SensorReplyMany struct {
	Status  byte
	Temps   []units.Celsius
	Failed  int    // index of the failing probe when Status != StatusOK
	Message string // error detail when Status != StatusOK
}

// AppendSensorReplyMany encodes a reply appended to dst; a message
// longer than a wire string is clipped. On error dst is returned
// unchanged.
func AppendSensorReplyMany(dst []byte, r *SensorReplyMany) ([]byte, error) {
	e := traceHeader(dst, MsgSensorReplyMany, TraceContext{})
	e.byte(r.Status)
	if r.Status == StatusOK {
		switch {
		case len(r.Temps) == 0:
			return dst, ErrNoProbes
		case len(r.Temps) > MaxSensorProbes:
			return dst, ErrTooManyProbes
		}
		e.byte(byte(len(r.Temps)))
		for _, t := range r.Temps {
			e.f64(float64(t))
		}
		return e.buf, nil
	}
	if len(r.Temps) != 0 || r.Failed < 0 || r.Failed >= MaxSensorProbes {
		return dst, ErrBadFailure
	}
	e.byte(0)
	e.byte(byte(r.Failed))
	e.message(r.Message)
	return e.buf, nil
}

// UnmarshalSensorReplyManyInto decodes a reply into r, reusing its
// temperature storage; an OK reply allocates nothing once Temps has
// the capacity. On error r's contents are unspecified.
func UnmarshalSensorReplyManyInto(r *SensorReplyMany, buf []byte) error {
	d, err := checkHeader(buf, MsgSensorReplyMany)
	if err != nil {
		return err
	}
	if r.Status, err = d.byte(); err != nil {
		return err
	}
	n, err := d.byte()
	if err != nil {
		return err
	}
	r.Temps, r.Failed, r.Message = r.Temps[:0], 0, ""
	if r.Status == StatusOK {
		switch {
		case n == 0:
			return ErrNoProbes
		case int(n) > MaxSensorProbes:
			return ErrTooManyProbes
		}
		for i := 0; i < int(n); i++ {
			v, err := d.f64()
			if err != nil {
				return err
			}
			r.Temps = append(r.Temps, units.Celsius(v))
		}
	} else {
		if n != 0 {
			return ErrBadFailure
		}
		idx, err := d.byte()
		if err != nil {
			return err
		}
		if int(idx) >= MaxSensorProbes {
			return ErrBadFailure
		}
		r.Failed = int(idx)
		if r.Message, err = d.str(); err != nil {
			return err
		}
	}
	if d.pos != len(buf) {
		return ErrTrailingBytes
	}
	return nil
}
