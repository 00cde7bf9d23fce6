package wire

// This file holds the scale-out messages: boundary exhaust exchange
// between peer solver daemons of a horizontally partitioned cluster,
// and utilization batches, the one datagram every monitord reports in
// (a per-machine daemon sends a batch of one). Both are strict
// about their framing — wrong counts, short buffers, slack bytes, and
// malformed trace trailers are all rejected with typed errors —
// because a partitioned run's determinism rests on every applied
// datagram meaning exactly what the sender stepped.

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"github.com/darklab/mercury/internal/units"
)

// MaxBoundaryRecords bounds the records of one boundary exchange
// datagram: 16 bytes of header, 12 per record, and an optional 16-byte
// trace trailer stay well inside the daemon's 2048-byte receive
// buffer. Larger boundaries are chunked across datagrams; the receiver
// counts applied records per tick, so chunk boundaries are invisible.
const MaxBoundaryRecords = 128

// BoundaryRecord is one machine's published exhaust temperature. The
// machine travels as its global index in cluster compilation order —
// every instance of a partitioned cluster compiles the same full
// cluster, so indices are 4 fixed bytes where names would be variable
// and ~10x larger.
type BoundaryRecord struct {
	Machine uint32
	Temp    units.Celsius
}

// BoundaryExchange carries the boundary exhaust temperatures one
// region publishes to a peer after stepping a tick. The receiver
// applies every record of tick T before stepping tick T+1 — the
// lockstep barrier that keeps a partitioned run bit-identical to a
// single solver.
type BoundaryExchange struct {
	// Region is the SENDING region's index.
	Region uint32
	// Tick is the solver step count after which the exhausts were read.
	Tick uint64
	// Records are the published exhausts, at most MaxBoundaryRecords.
	Records []BoundaryRecord
	// Trace optionally attributes the exchange (version-2 trailer).
	Trace TraceContext
}

// MarshalBoundaryExchange encodes an exchange datagram.
func MarshalBoundaryExchange(b *BoundaryExchange) ([]byte, error) {
	return AppendBoundaryExchange(nil, b)
}

// AppendBoundaryExchange is MarshalBoundaryExchange appending to dst,
// so a publisher that reuses its datagram buffer encodes without
// allocating. On error dst is returned unchanged.
func AppendBoundaryExchange(dst []byte, b *BoundaryExchange) ([]byte, error) {
	if len(b.Records) == 0 {
		return dst, ErrEmptyBoundary
	}
	if len(b.Records) > MaxBoundaryRecords {
		return dst, ErrTooManyBoundary
	}
	e := traceHeader(dst, MsgBoundaryExchange, b.Trace)
	e.u32(b.Region)
	e.u64(b.Tick)
	e.byte(byte(len(b.Records) >> 8)) // count as big-endian u16
	e.byte(byte(len(b.Records)))
	for _, r := range b.Records {
		e.u32(r.Machine)
		e.f64(float64(r.Temp))
	}
	if !b.Trace.Zero() {
		e.trace(b.Trace)
	}
	return e.buf, nil
}

// boundaryRecordSize is one record on the wire: u32 index, f64 temp.
const boundaryRecordSize = 12

// BoundaryFrame is a validated exchange datagram whose records are
// still in wire form: the header fields are decoded, the records are
// read in place with Record. It aliases the datagram it was parsed
// from and is valid only as long as those bytes are.
type BoundaryFrame struct {
	Region uint32
	Tick   uint64
	Trace  TraceContext
	recs   []byte
}

// Len returns the number of records, between 1 and MaxBoundaryRecords.
func (f *BoundaryFrame) Len() int { return len(f.recs) / boundaryRecordSize }

// Record decodes record i.
func (f *BoundaryFrame) Record(i int) BoundaryRecord {
	r := f.recs[i*boundaryRecordSize:]
	return BoundaryRecord{
		Machine: binary.BigEndian.Uint32(r),
		Temp:    units.Celsius(math.Float64frombits(binary.BigEndian.Uint64(r[4:]))),
	}
}

// ParseBoundaryExchange checks an exchange datagram's framing — the
// record count must match the buffer exactly: short buffers, slack
// bytes and empty exchanges are all rejected — and returns a view of
// it, so a receiver can copy the records straight to where they are
// going.
func ParseBoundaryExchange(buf []byte) (BoundaryFrame, error) {
	var f BoundaryFrame
	d, ver, err := checkHeaderVer(buf, MsgBoundaryExchange)
	if err != nil {
		return f, err
	}
	if f.Region, err = d.u32(); err != nil {
		return f, err
	}
	if f.Tick, err = d.u64(); err != nil {
		return f, err
	}
	hi, err := d.byte()
	if err != nil {
		return f, err
	}
	lo, err := d.byte()
	if err != nil {
		return f, err
	}
	n := int(hi)<<8 | int(lo)
	if n == 0 {
		return f, ErrEmptyBoundary
	}
	if n > MaxBoundaryRecords {
		return f, ErrTooManyBoundary
	}
	if d.pos+n*boundaryRecordSize > len(buf) {
		return f, ErrShort
	}
	f.recs = buf[d.pos : d.pos+n*boundaryRecordSize]
	d.pos += len(f.recs)
	if ver == VersionTrace {
		if f.Trace, err = d.trace(); err != nil {
			return f, err
		}
	}
	if d.pos != len(buf) {
		return f, ErrTrailingBytes
	}
	return f, nil
}

// MaxBatchMachines bounds the machines of one utilization batch; with
// up to 8 entries per machine the worst case stays inside MaxBatchSize.
const MaxBatchMachines = 16

// MaxBatchSize bounds an encoded batch datagram, matching the solver
// daemon's receive buffer.
const MaxBatchSize = 2048

// UtilReport is one machine's slice of a utilization batch — the same
// (machine, seq, entries) triple a UtilUpdate carries, without its
// padding.
type UtilReport struct {
	Machine string
	Seq     uint32
	Entries []UtilEntry
}

// UtilBatch carries one or more machines' utilization reports in one
// datagram. A per-machine monitord sends a batch of one each interval;
// one responsible for a whole rack sends one batch instead of one
// datagram per machine, 16x fewer system calls for a 16-machine rack.
// The receiver applies each report through the same per-machine
// sequence dedupe.
type UtilBatch struct {
	Reports []UtilReport
	// Trace optionally attributes the whole batch (version-2 trailer).
	Trace TraceContext
}

// MarshalUtilBatch encodes a batch datagram. Report entries are sorted
// by source like standalone updates so encoding is deterministic;
// report order is the caller's and preserved.
func MarshalUtilBatch(b *UtilBatch) ([]byte, error) {
	return AppendUtilBatch(nil, b)
}

// AppendUtilBatch is MarshalUtilBatch appending to dst: a sender that
// passes its previous datagram's buf[:0] encodes without allocating.
// On error dst is returned unchanged.
func AppendUtilBatch(dst []byte, b *UtilBatch) ([]byte, error) {
	if len(b.Reports) == 0 {
		return dst, ErrEmptyBatch
	}
	if len(b.Reports) > MaxBatchMachines {
		return dst, ErrTooManyBatch
	}
	e := traceHeader(dst, MsgUtilBatch, b.Trace)
	e.byte(byte(len(b.Reports)))
	for i := range b.Reports {
		r := &b.Reports[i]
		e.report(r.Machine, r.Seq, r.Entries)
	}
	if e.err != nil {
		return dst, e.err
	}
	if !b.Trace.Zero() {
		e.trace(b.Trace)
	}
	if n := len(e.buf) - len(dst); n > MaxBatchSize {
		return dst, fmt.Errorf("wire: utilization batch needs %d bytes, limit %d", n, MaxBatchSize)
	}
	return e.buf, nil
}

// UnmarshalUtilBatch decodes a batch datagram with the same strictness
// as the boundary exchange: zero machines, short buffers and slack
// bytes are rejected.
func UnmarshalUtilBatch(buf []byte) (*UtilBatch, error) {
	b := &UtilBatch{}
	if err := UnmarshalUtilBatchInto(b, buf, nil); err != nil {
		return nil, err
	}
	return b, nil
}

// UnmarshalUtilBatchInto is UnmarshalUtilBatch decoding into b, reusing
// its report and entry storage. intern, when non-nil, is called once
// per report, in datagram order, with the machine name's bytes and
// returns the receiver's own string for it; with it, and sources the
// model names, a steady-state decode allocates nothing. On error b's
// contents are unspecified.
func UnmarshalUtilBatchInto(b *UtilBatch, buf []byte, intern func([]byte) string) error {
	d, ver, err := checkHeaderVer(buf, MsgUtilBatch)
	if err != nil {
		return err
	}
	n, err := d.byte()
	if err != nil {
		return err
	}
	if n == 0 {
		return ErrEmptyBatch
	}
	if int(n) > MaxBatchMachines {
		return ErrTooManyBatch
	}
	// Reports beyond the previous length but within capacity still hold
	// the entry storage of an earlier, larger batch.
	b.Reports = slices.Grow(b.Reports[:0], int(n))[:n]
	for i := range b.Reports {
		r := &b.Reports[i]
		if r.Machine, r.Seq, r.Entries, err = d.report(r.Entries, intern); err != nil {
			return err
		}
	}
	b.Trace = TraceContext{}
	if ver == VersionTrace {
		if b.Trace, err = d.trace(); err != nil {
			return err
		}
	}
	if d.pos != len(buf) {
		return ErrTrailingBytes
	}
	return nil
}
