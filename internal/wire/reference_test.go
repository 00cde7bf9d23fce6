package wire

// The utilization report codecs as they stood before the report path
// became allocation-free: a heap encoder/decoder per call, a copied
// entry slice sorted by sort.Slice, a fresh string per name. Frozen
// here, test-only, as the reference the differential tests hold the
// append/into core to — identical bytes, values and typed errors.

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

type refEncoder struct {
	buf []byte
	err error
}

func (e *refEncoder) byte(b byte)  { e.buf = append(e.buf, b) }
func (e *refEncoder) u32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *refEncoder) u64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *refEncoder) f64(v float64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(v))
}

func (e *refEncoder) str(s string) {
	if len(s) > 255 {
		e.err = ErrStringSize
		return
	}
	e.byte(byte(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *refEncoder) trace(tc TraceContext) {
	e.u64(tc.Trace)
	e.u64(tc.Span)
}

func refTraceHeader(typ byte, tc TraceContext) *refEncoder {
	e := &refEncoder{}
	if tc.Zero() {
		e.byte(Version)
	} else {
		e.byte(VersionTrace)
	}
	e.byte(typ)
	return e
}

type refDecoder struct {
	buf []byte
	pos int
}

func (d *refDecoder) byte() (byte, error) {
	if d.pos >= len(d.buf) {
		return 0, ErrShort
	}
	b := d.buf[d.pos]
	d.pos++
	return b, nil
}

func (d *refDecoder) u32() (uint32, error) {
	if d.pos+4 > len(d.buf) {
		return 0, ErrShort
	}
	v := binary.BigEndian.Uint32(d.buf[d.pos:])
	d.pos += 4
	return v, nil
}

func (d *refDecoder) u64() (uint64, error) {
	if d.pos+8 > len(d.buf) {
		return 0, ErrShort
	}
	v := binary.BigEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return v, nil
}

func (d *refDecoder) f64() (float64, error) {
	v, err := d.u64()
	return math.Float64frombits(v), err
}

func (d *refDecoder) str() (string, error) {
	n, err := d.byte()
	if err != nil {
		return "", err
	}
	if d.pos+int(n) > len(d.buf) {
		return "", ErrShort
	}
	s := string(d.buf[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s, nil
}

func (d *refDecoder) trace() (TraceContext, error) {
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

func refCheckHeaderVer(buf []byte, typ byte) (*refDecoder, byte, error) {
	d := &refDecoder{buf: buf}
	v, err := d.byte()
	if err != nil {
		return nil, 0, err
	}
	if v != Version && v != VersionTrace {
		return nil, 0, ErrBadVersion
	}
	t, err := d.byte()
	if err != nil {
		return nil, 0, err
	}
	if t != typ {
		return nil, 0, ErrBadType
	}
	return d, v, nil
}

func refSortedEntries(entries []UtilEntry) []UtilEntry {
	out := append([]UtilEntry(nil), entries...)
	sort.Slice(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	return out
}

func refMarshalUtilUpdate(u *UtilUpdate) ([]byte, error) {
	entries := refSortedEntries(u.Entries)
	e := refTraceHeader(MsgUtilUpdate, u.Trace)
	e.str(u.Machine)
	e.u32(u.Seq)
	if len(entries) > 8 {
		return nil, ErrTooManyUtil
	}
	e.byte(byte(len(entries)))
	for _, en := range entries {
		e.str(string(en.Source))
		e.f64(float64(en.Util.Clamp()))
	}
	if e.err != nil {
		return nil, e.err
	}
	limit := UtilUpdateSize
	if !u.Trace.Zero() {
		limit = UtilTraceOffset
	}
	if len(e.buf) > limit {
		return nil, fmt.Errorf("wire: utilization update needs %d bytes, limit %d", len(e.buf), limit)
	}
	padded := make([]byte, UtilUpdateSize)
	copy(padded, e.buf)
	if !u.Trace.Zero() {
		padded[UtilTraceOffset] = TraceFlag
		binary.BigEndian.PutUint64(padded[UtilTraceOffset+1:], u.Trace.Trace)
		binary.BigEndian.PutUint64(padded[UtilTraceOffset+9:], u.Trace.Span)
	}
	return padded, nil
}

func refUnmarshalUtilUpdate(buf []byte) (*UtilUpdate, error) {
	if len(buf) != UtilUpdateSize {
		return nil, ErrBadSize
	}
	d, ver, err := refCheckHeaderVer(buf, MsgUtilUpdate)
	if err != nil {
		return nil, err
	}
	u := &UtilUpdate{}
	if u.Machine, err = d.str(); err != nil {
		return nil, err
	}
	if u.Seq, err = d.u32(); err != nil {
		return nil, err
	}
	n, err := d.byte()
	if err != nil {
		return nil, err
	}
	if n > 8 {
		return nil, ErrTooManyUtil
	}
	for i := 0; i < int(n); i++ {
		src, err := d.str()
		if err != nil {
			return nil, err
		}
		v, err := d.f64()
		if err != nil {
			return nil, err
		}
		u.Entries = append(u.Entries, UtilEntry{
			Source: model.UtilSource(src),
			Util:   units.Fraction(v).Clamp(),
		})
	}
	if ver == VersionTrace {
		if d.pos > UtilTraceOffset {
			return nil, ErrBadTrace
		}
		for _, b := range buf[d.pos:UtilTraceOffset] {
			if b != 0 {
				return nil, ErrBadTrace
			}
		}
		if buf[UtilTraceOffset] != TraceFlag {
			return nil, ErrBadTrace
		}
		td := &refDecoder{buf: buf, pos: UtilTraceOffset + 1}
		if u.Trace, err = td.trace(); err != nil {
			return nil, err
		}
	}
	return u, nil
}

func refMarshalUtilBatch(b *UtilBatch) ([]byte, error) {
	if len(b.Reports) == 0 {
		return nil, ErrEmptyBatch
	}
	if len(b.Reports) > MaxBatchMachines {
		return nil, ErrTooManyBatch
	}
	e := refTraceHeader(MsgUtilBatch, b.Trace)
	e.byte(byte(len(b.Reports)))
	for _, r := range b.Reports {
		if len(r.Entries) > 8 {
			return nil, ErrTooManyUtil
		}
		e.str(r.Machine)
		e.u32(r.Seq)
		e.byte(byte(len(r.Entries)))
		for _, en := range refSortedEntries(r.Entries) {
			e.str(string(en.Source))
			e.f64(float64(en.Util.Clamp()))
		}
	}
	if !b.Trace.Zero() {
		e.trace(b.Trace)
	}
	if e.err != nil {
		return nil, e.err
	}
	if len(e.buf) > MaxBatchSize {
		return nil, fmt.Errorf("wire: utilization batch needs %d bytes, limit %d", len(e.buf), MaxBatchSize)
	}
	return e.buf, nil
}

func refUnmarshalUtilBatch(buf []byte) (*UtilBatch, error) {
	d, ver, err := refCheckHeaderVer(buf, MsgUtilBatch)
	if err != nil {
		return nil, err
	}
	n, err := d.byte()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, ErrEmptyBatch
	}
	if int(n) > MaxBatchMachines {
		return nil, ErrTooManyBatch
	}
	b := &UtilBatch{Reports: make([]UtilReport, n)}
	for i := range b.Reports {
		r := &b.Reports[i]
		if r.Machine, err = d.str(); err != nil {
			return nil, err
		}
		if r.Seq, err = d.u32(); err != nil {
			return nil, err
		}
		en, err := d.byte()
		if err != nil {
			return nil, err
		}
		if en > 8 {
			return nil, ErrTooManyUtil
		}
		for j := 0; j < int(en); j++ {
			src, err := d.str()
			if err != nil {
				return nil, err
			}
			v, err := d.f64()
			if err != nil {
				return nil, err
			}
			r.Entries = append(r.Entries, UtilEntry{
				Source: model.UtilSource(src),
				Util:   units.Fraction(v).Clamp(),
			})
		}
	}
	if ver == VersionTrace {
		if b.Trace, err = d.trace(); err != nil {
			return nil, err
		}
	}
	if d.pos != len(buf) {
		return nil, ErrTrailingBytes
	}
	return b, nil
}
