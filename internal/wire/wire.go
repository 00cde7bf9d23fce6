// Package wire defines the UDP datagram formats spoken between the
// Mercury solver daemon, the monitoring daemons, the sensor library,
// and the fiddle tool. Utilization updates are padded to exactly 128
// bytes, matching the paper's "128-byte UDP messages"; replies are at
// most 512 bytes.
//
// All multi-byte integers are big-endian. Strings are length-prefixed
// with one byte (maximum 255 bytes). Floats travel as IEEE-754 bits.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"unicode/utf8"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

// Message type bytes.
const (
	MsgUtilUpdate = 0x01
	// 0x02 and 0x03 stay unassigned: an older client may still send a
	// single-probe sensor read there, which solverd must count as
	// malformed, not misread as another message.
	MsgFiddleOp    = 0x04
	MsgFiddleReply = 0x05
	MsgListNodes   = 0x06
	MsgListReply   = 0x07
	// MsgBoundaryExchange carries one region's boundary exhaust
	// temperatures to a peer solver daemon of a horizontally partitioned
	// cluster (batch.go).
	MsgBoundaryExchange = 0x08
	// MsgUtilBatch carries many machines' utilization reports in one
	// datagram (batch.go).
	MsgUtilBatch = 0x09
	// MsgSensorReadMany asks for several probes' temperatures in one
	// datagram, and MsgSensorReplyMany answers it (sensormany.go).
	MsgSensorReadMany  = 0x0A
	MsgSensorReplyMany = 0x0B
)

// Version is the baseline protocol version byte leading every
// datagram. VersionTrace marks the extended encoding that carries a
// causal trace context: utilization updates place it in the spare
// padding bytes of the fixed 128-byte datagram, sensor reads append it
// after the version-1 payload. A message without a trace context is
// always emitted as version 1, byte-identical to the pre-trace
// protocol, so old and new daemons interoperate: a version-1 receiver
// simply never learns about traces.
const (
	Version      = 0x01
	VersionTrace = 0x02
)

// UtilUpdateSize is the fixed size of a utilization update datagram.
const UtilUpdateSize = 128

// UtilTraceOffset is where the version-2 trace trailer begins inside
// a utilization update: a flag byte (TraceFlag) followed by the trace
// and span IDs as big-endian u64s, occupying the last 17 of the 128
// bytes. Version-2 updates must fit their payload in the first 111
// bytes, and the slack between payload end and the trailer must be
// zero — anything else is rejected as malformed.
const UtilTraceOffset = UtilUpdateSize - 17

// TraceFlag is the marker byte opening a utilization update's trace
// trailer.
const TraceFlag = 0x01

// MaxReplySize bounds every reply datagram.
const MaxReplySize = 512

// Status codes carried in replies.
const (
	StatusOK      = 0x00
	StatusUnknown = 0x01 // unknown machine/node/source
	StatusBadOp   = 0x02 // malformed or rejected operation
)

// Common decode errors.
var (
	ErrShort       = errors.New("wire: datagram too short")
	ErrBadSize     = errors.New("wire: utilization update must be exactly 128 bytes")
	ErrBadVersion  = errors.New("wire: unsupported protocol version")
	ErrBadType     = errors.New("wire: unexpected message type")
	ErrStringSize  = errors.New("wire: string exceeds 255 bytes")
	ErrTooManyUtil = errors.New("wire: too many utilization entries")
	ErrBadTrace    = errors.New("wire: malformed trace context")
	// ErrEmptyBoundary rejects a boundary exchange with no records: the
	// message exists only to carry temperatures, so an empty one is
	// malformed, not a no-op.
	ErrEmptyBoundary = errors.New("wire: boundary exchange carries no records")
	// ErrTooManyBoundary bounds one exchange datagram; larger boundaries
	// are chunked by the sender (MaxBoundaryRecords).
	ErrTooManyBoundary = errors.New("wire: too many boundary records")
	// ErrEmptyBatch rejects a utilization batch reporting no machines.
	ErrEmptyBatch = errors.New("wire: utilization batch carries no machines")
	// ErrTooManyBatch bounds the machines of one batch datagram
	// (MaxBatchMachines).
	ErrTooManyBatch = errors.New("wire: too many machines in utilization batch")
	// ErrTrailingBytes rejects datagrams with bytes after a complete
	// payload; the fixed-width messages tolerate no slack.
	ErrTrailingBytes = errors.New("wire: trailing bytes after payload")
)

// TraceContext is a causal trace reference carried across the wire
// (see internal/causal). A zero context means "untraced" and selects
// the version-1 encoding.
type TraceContext struct {
	Trace uint64
	Span  uint64
}

// Zero reports whether the context carries no trace.
func (c TraceContext) Zero() bool { return c == TraceContext{} }

// UtilEntry is one (source, utilization) pair of an update: the very
// type samplers produce and the solver applies, so a report's entries
// pass through the codec without conversion.
type UtilEntry = model.UtilSample

// maxUtilEntries bounds the entries of one report, in a standalone
// update and in a batch alike.
const maxUtilEntries = 8

// UtilUpdate is the periodic report monitord sends to the solver: the
// monitored machine's component utilizations for the last interval.
// A non-zero Trace selects the version-2 encoding, which carries the
// context in the datagram's spare padding bytes (see UtilTraceOffset).
type UtilUpdate struct {
	Machine string
	Seq     uint32
	Entries []UtilEntry
	Trace   TraceContext
}

type encoder struct {
	buf []byte
	err error
}

func (e *encoder) byte(b byte) { e.buf = append(e.buf, b) }

func (e *encoder) u32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

func (e *encoder) u64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

func (e *encoder) f64(v float64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(v))
}

func (e *encoder) str(s string) {
	if len(s) > 255 {
		// The first error sticks, except that ErrTooManyUtil (report)
		// outranks it wherever in the datagram it occurs.
		if e.err == nil {
			e.err = ErrStringSize
		}
		return
	}
	e.byte(byte(len(s)))
	e.buf = append(e.buf, s...)
}

// message encodes a reply's error detail, clipped to a wire string at
// a UTF-8 boundary: a long unknown name must not cost the reply that
// reports it.
func (e *encoder) message(s string) {
	if len(s) > 255 {
		n := 255
		for n > 0 && !utf8.RuneStart(s[n]) {
			n--
		}
		s = s[:n]
	}
	e.str(s)
}

type decoder struct {
	buf []byte
	pos int
}

func (d *decoder) byte() (byte, error) {
	if d.pos >= len(d.buf) {
		return 0, ErrShort
	}
	b := d.buf[d.pos]
	d.pos++
	return b, nil
}

func (d *decoder) u32() (uint32, error) {
	if d.pos+4 > len(d.buf) {
		return 0, ErrShort
	}
	v := binary.BigEndian.Uint32(d.buf[d.pos:])
	d.pos += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if d.pos+8 > len(d.buf) {
		return 0, ErrShort
	}
	v := binary.BigEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return v, nil
}

func (d *decoder) f64() (float64, error) {
	if d.pos+8 > len(d.buf) {
		return 0, ErrShort
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.buf[d.pos:]))
	d.pos += 8
	return v, nil
}

func (d *decoder) str() (string, error) {
	b, err := d.name()
	return string(b), err
}

// internStr decodes a length-prefixed string through intern, when
// non-nil, instead of copying it.
func (d *decoder) internStr(intern func([]byte) string) (string, error) {
	b, err := d.name()
	if err != nil || intern == nil {
		return string(b), err
	}
	return intern(b), nil
}

// name decodes a length-prefixed string without copying it; the bytes
// alias the datagram.
func (d *decoder) name() ([]byte, error) {
	n, err := d.byte()
	if err != nil {
		return nil, err
	}
	if d.pos+int(n) > len(d.buf) {
		return nil, ErrShort
	}
	b := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b, nil
}

func header(typ byte) encoder {
	return traceHeader(nil, typ, TraceContext{})
}

// traceHeader opens a datagram appended to dst, at version 1 or 2
// depending on whether a trace context rides along; untraced messages
// stay byte-identical to the pre-trace protocol. Encoders and decoders
// are returned by value so a codec call leaves nothing on the heap but
// the bytes or the message it hands back.
func traceHeader(dst []byte, typ byte, tc TraceContext) encoder {
	ver := byte(Version)
	if !tc.Zero() {
		ver = VersionTrace
	}
	return encoder{buf: append(dst, ver, typ)}
}

func checkHeader(buf []byte, typ byte) (decoder, error) {
	d, v, err := checkHeaderVer(buf, typ)
	if err != nil {
		return d, err
	}
	if v != Version {
		return d, ErrBadVersion
	}
	return d, nil
}

// checkHeaderVer accepts version 1 and 2 datagrams and reports which
// was seen; messages that never grew a version-2 form keep using
// checkHeader, which still rejects everything but version 1.
func checkHeaderVer(buf []byte, typ byte) (decoder, byte, error) {
	d := decoder{buf: buf}
	v, err := d.byte()
	if err != nil {
		return d, 0, err
	}
	if v != Version && v != VersionTrace {
		return d, 0, ErrBadVersion
	}
	t, err := d.byte()
	if err != nil {
		return d, 0, err
	}
	if t != typ {
		return d, 0, ErrBadType
	}
	return d, v, nil
}

// trace encodes the 16-byte trace context (trace ID then span ID).
func (e *encoder) trace(tc TraceContext) {
	e.u64(tc.Trace)
	e.u64(tc.Span)
}

// trace decodes a trace context and rejects a zero trace ID: version-2
// datagrams exist only to carry a trace, so an absent one is
// malformed, not empty.
func (d *decoder) trace() (TraceContext, error) {
	var tc TraceContext
	var err error
	if tc.Trace, err = d.u64(); err != nil {
		return tc, err
	}
	if tc.Span, err = d.u64(); err != nil {
		return tc, err
	}
	if tc.Trace == 0 {
		return tc, ErrBadTrace
	}
	return tc, nil
}

// report encodes one (machine, seq, entries) triple — the bytes a
// standalone update and a batch report share. Entries are sorted by
// source so encoding is deterministic: in a stack array, by insertion,
// which is stable, so duplicate sources keep the caller's order.
func (e *encoder) report(machine string, seq uint32, entries []UtilEntry) {
	if len(entries) > maxUtilEntries {
		e.err = ErrTooManyUtil
		return
	}
	e.str(machine)
	e.u32(seq)
	e.byte(byte(len(entries)))
	var sorted [maxUtilEntries]UtilEntry
	n := copy(sorted[:], entries)
	for i := 1; i < n; i++ {
		for j := i; j > 0 && sorted[j].Source < sorted[j-1].Source; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	for _, en := range sorted[:n] {
		e.str(string(en.Source))
		e.f64(float64(en.Util.Clamp()))
	}
}

// internSource returns the model's own string for the three sources
// monitord samples, so decoding them allocates nothing.
func internSource(b []byte) model.UtilSource {
	switch string(b) {
	case string(model.UtilCPU):
		return model.UtilCPU
	case string(model.UtilDisk):
		return model.UtilDisk
	case string(model.UtilNet):
		return model.UtilNet
	}
	return model.UtilSource(b)
}

// report decodes one (machine, seq, entries) triple, appending the
// entries to entries[:0]. intern, when non-nil, is called exactly once,
// with the machine name as it appears in the datagram, and supplies
// the string to report for it — a receiver that knows its machines
// returns its own copy and the decode allocates nothing.
func (d *decoder) report(entries []UtilEntry, intern func([]byte) string) (machine string, seq uint32, out []UtilEntry, err error) {
	out = entries[:0]
	mb, err := d.name()
	if err != nil {
		return "", 0, out, err
	}
	if intern != nil {
		machine = intern(mb)
	} else {
		machine = string(mb)
	}
	if seq, err = d.u32(); err != nil {
		return "", 0, out, err
	}
	n, err := d.byte()
	if err != nil {
		return "", 0, out, err
	}
	if n > maxUtilEntries {
		return "", 0, out, ErrTooManyUtil
	}
	for i := 0; i < int(n); i++ {
		src, err := d.name()
		if err != nil {
			return "", 0, out, err
		}
		v, err := d.f64()
		if err != nil {
			return "", 0, out, err
		}
		out = append(out, UtilEntry{Source: internSource(src), Util: units.Fraction(v).Clamp()})
	}
	return machine, seq, out, nil
}

// MarshalUtilUpdate encodes an update into exactly UtilUpdateSize
// bytes. Entries are sorted by source so encoding is deterministic.
func MarshalUtilUpdate(u *UtilUpdate) ([]byte, error) {
	return AppendUtilUpdate(nil, u)
}

// AppendUtilUpdate is MarshalUtilUpdate appending its UtilUpdateSize
// bytes to dst: a sender that passes its previous datagram's buf[:0]
// encodes without allocating. On error dst is returned unchanged.
func AppendUtilUpdate(dst []byte, u *UtilUpdate) ([]byte, error) {
	e := traceHeader(slices.Grow(dst, UtilUpdateSize), MsgUtilUpdate, u.Trace)
	e.report(u.Machine, u.Seq, u.Entries)
	if e.err != nil {
		return dst, e.err
	}
	limit := UtilUpdateSize
	if !u.Trace.Zero() {
		limit = UtilTraceOffset
	}
	if n := len(e.buf) - len(dst); n > limit {
		return dst, fmt.Errorf("wire: utilization update needs %d bytes, limit %d", n, limit)
	}
	payload := len(e.buf)
	e.buf = e.buf[:len(dst)+UtilUpdateSize]
	clear(e.buf[payload:])
	if !u.Trace.Zero() {
		trailer := e.buf[len(dst)+UtilTraceOffset:]
		trailer[0] = TraceFlag
		binary.BigEndian.PutUint64(trailer[1:], u.Trace.Trace)
		binary.BigEndian.PutUint64(trailer[9:], u.Trace.Span)
	}
	return e.buf, nil
}

// UnmarshalUtilUpdate decodes an update datagram. Compliant senders
// always pad to exactly UtilUpdateSize, so any other length is
// rejected outright.
func UnmarshalUtilUpdate(buf []byte) (*UtilUpdate, error) {
	u := &UtilUpdate{}
	if err := UnmarshalUtilUpdateInto(u, buf, nil); err != nil {
		return nil, err
	}
	return u, nil
}

// UnmarshalUtilUpdateInto is UnmarshalUtilUpdate decoding into u,
// reusing its entry storage; intern, when non-nil, maps the machine
// name's bytes to the receiver's own string for it. On error u's
// contents are unspecified.
func UnmarshalUtilUpdateInto(u *UtilUpdate, buf []byte, intern func([]byte) string) error {
	if len(buf) != UtilUpdateSize {
		return ErrBadSize
	}
	d, ver, err := checkHeaderVer(buf, MsgUtilUpdate)
	if err != nil {
		return err
	}
	if u.Machine, u.Seq, u.Entries, err = d.report(u.Entries, intern); err != nil {
		return err
	}
	u.Trace = TraceContext{}
	if ver == VersionTrace {
		// The payload must leave the trailer bytes alone, every spare
		// byte between payload and trailer must still be zero padding,
		// and the trailer must open with the flag byte. Rejecting the
		// malformed cases here keeps a corrupted or truncated-payload
		// datagram from being silently read as traced.
		if d.pos > UtilTraceOffset {
			return ErrBadTrace
		}
		for _, b := range buf[d.pos:UtilTraceOffset] {
			if b != 0 {
				return ErrBadTrace
			}
		}
		if buf[UtilTraceOffset] != TraceFlag {
			return ErrBadTrace
		}
		d.pos = UtilTraceOffset + 1
		if u.Trace, err = d.trace(); err != nil {
			return err
		}
	}
	return nil
}

// ListNodes asks the solver which nodes a machine has (or, with an
// empty machine name, which machines exist).
type ListNodes struct {
	Machine string
}

// MarshalListNodes encodes a list request.
func MarshalListNodes(r *ListNodes) ([]byte, error) {
	e := header(MsgListNodes)
	e.str(r.Machine)
	if e.err != nil {
		return nil, e.err
	}
	return e.buf, nil
}

// UnmarshalListNodes decodes a list request.
func UnmarshalListNodes(buf []byte) (*ListNodes, error) {
	d, err := checkHeader(buf, MsgListNodes)
	if err != nil {
		return nil, err
	}
	r := &ListNodes{}
	if r.Machine, err = d.str(); err != nil {
		return nil, err
	}
	return r, nil
}

// ListReply answers ListNodes with up to 255 names.
type ListReply struct {
	Status byte
	Names  []string
}

// MarshalListReply encodes a list reply; it fails if the reply would
// exceed MaxReplySize.
func MarshalListReply(r *ListReply) ([]byte, error) {
	e := header(MsgListReply)
	e.byte(r.Status)
	if len(r.Names) > 255 {
		return nil, fmt.Errorf("wire: too many names (%d)", len(r.Names))
	}
	e.byte(byte(len(r.Names)))
	for _, n := range r.Names {
		e.str(n)
	}
	if e.err != nil {
		return nil, e.err
	}
	if len(e.buf) > MaxReplySize {
		return nil, fmt.Errorf("wire: list reply needs %d bytes, limit %d", len(e.buf), MaxReplySize)
	}
	return e.buf, nil
}

// UnmarshalListReply decodes a list reply.
func UnmarshalListReply(buf []byte) (*ListReply, error) {
	d, err := checkHeader(buf, MsgListReply)
	if err != nil {
		return nil, err
	}
	r := &ListReply{}
	if r.Status, err = d.byte(); err != nil {
		return nil, err
	}
	n, err := d.byte()
	if err != nil {
		return nil, err
	}
	for i := 0; i < int(n); i++ {
		name, err := d.str()
		if err != nil {
			return nil, err
		}
		r.Names = append(r.Names, name)
	}
	return r, nil
}
