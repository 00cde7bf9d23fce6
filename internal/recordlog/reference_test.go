package recordlog

// The record codec as it stood before one field function per record
// type replaced it: a hand-offset encoder and decoder per type, sizes
// summed by hand, and a size switch in front of a decode switch.
// Frozen here, test-only, together with the Writer's chunking of
// rows and boundary imports, as the reference TestCodecDifferential
// and FuzzCodecDifferential hold the new codec to — identical bytes,
// truncation counts, values and ok.

import (
	"encoding/binary"
	"math"
	"time"

	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/telemetry"
	"github.com/darklab/mercury/internal/units"
	"github.com/darklab/mercury/internal/wire"
)

// Fixed payload sizes per record type.
const (
	refFormatSize   = 4 + strSource + strLayout                                               // 132
	refSpanSize     = 8 + 8*3 + 8*2 + 8 + 8 + strKind + 2*strMachine                          // 128
	refEventSize    = 8 + 8 + 8 + strType + 2*strMachine + strDetail                          // 160
	refProbeSize    = 2 + 2 + 2*strMachine                                                    // 52
	refTempRowSize  = 8 + 2 + 2 + 4 + tempChunk*8                                             // 464
	refUtilSize     = 8 + 8 + 4 + 1 + 3 + strMachine + utilMaxEntries*(strSource+8)           // 240
	refFiddleSize   = 8 + 8 + 1 + 1 + 1 + 5 + fiddleMaxStrings*strMachine + fiddleMaxFloats*8 // 128
	refBoundarySize = 8 + 2 + 2 + 4 + boundaryChunk*(4+8)                                     // 496
	refMetaSize     = 8 + 4 + 4                                                               // 16
	refAlertSize    = refEventSize                                                            // 160
)

// refPutStr copies s into the fixed-width field b, NUL-padding the
// remainder. Returns 1 if s was truncated, 0 otherwise.
func refPutStr(b []byte, s string) int {
	n := copy(b, s)
	for i := n; i < len(b); i++ {
		b[i] = 0
	}
	if n < len(s) {
		return 1
	}
	return 0
}

// refGetStr reads a NUL-padded fixed-width string field.
func refGetStr(b []byte) string {
	i := 0
	for i < len(b) && b[i] != 0 {
		i++
	}
	return string(b[:i])
}

func refPutF64(b []byte, v float64) {
	binary.BigEndian.PutUint64(b, math.Float64bits(v))
}

func refGetF64(b []byte) float64 {
	return math.Float64frombits(binary.BigEndian.Uint64(b))
}

// refEncodeHeader writes the 52-byte file header.
func refEncodeHeader(b []byte, flags byte, epoch time.Time, node string) int {
	copy(b[0:8], Magic)
	b[8] = Version
	b[9] = flags
	b[10], b[11] = 0, 0
	binary.BigEndian.PutUint64(b[12:], uint64(epoch.UnixNano()))
	refPutStr(b[20:20+nodeLen], node)
	return headerSize
}

func refEncodeFormat(b []byte, f *FormatRecord) int {
	b[0] = f.Of
	b[1] = 0
	binary.BigEndian.PutUint16(b[2:], f.Size)
	refPutStr(b[4:4+strSource], f.Name)
	refPutStr(b[4+strSource:4+strSource+strLayout], f.Layout)
	return refFormatSize
}

func refDecodeFormat(b []byte) FormatRecord {
	return FormatRecord{
		Of:     b[0],
		Size:   binary.BigEndian.Uint16(b[2:]),
		Name:   refGetStr(b[4 : 4+strSource]),
		Layout: refGetStr(b[4+strSource : 4+strSource+strLayout]),
	}
}

func refEncodeSpan(b []byte, s *causal.Span) (n, trunc int) {
	binary.BigEndian.PutUint64(b[0:], s.Seq)
	binary.BigEndian.PutUint64(b[8:], s.Trace)
	binary.BigEndian.PutUint64(b[16:], s.ID)
	binary.BigEndian.PutUint64(b[24:], s.Parent)
	binary.BigEndian.PutUint64(b[32:], uint64(s.Begin))
	binary.BigEndian.PutUint64(b[40:], uint64(s.End))
	refPutF64(b[48:], s.Value)
	binary.BigEndian.PutUint64(b[56:], s.Step)
	trunc += refPutStr(b[64:64+strKind], string(s.Kind))
	trunc += refPutStr(b[80:80+strMachine], s.Machine)
	trunc += refPutStr(b[104:104+strNode], s.Node)
	return refSpanSize, trunc
}

func refDecodeSpan(b []byte) causal.Span {
	return causal.Span{
		Seq:     binary.BigEndian.Uint64(b[0:]),
		Trace:   binary.BigEndian.Uint64(b[8:]),
		ID:      binary.BigEndian.Uint64(b[16:]),
		Parent:  binary.BigEndian.Uint64(b[24:]),
		Begin:   time.Duration(binary.BigEndian.Uint64(b[32:])),
		End:     time.Duration(binary.BigEndian.Uint64(b[40:])),
		Value:   refGetF64(b[48:]),
		Step:    binary.BigEndian.Uint64(b[56:]),
		Kind:    causal.Kind(refGetStr(b[64 : 64+strKind])),
		Machine: refGetStr(b[80 : 80+strMachine]),
		Node:    refGetStr(b[104 : 104+strNode]),
	}
}

func refEncodeEvent(b []byte, e *telemetry.Event) (n, trunc int) {
	binary.BigEndian.PutUint64(b[0:], e.Seq)
	binary.BigEndian.PutUint64(b[8:], uint64(e.At))
	refPutF64(b[16:], e.Value)
	trunc += refPutStr(b[24:24+strType], string(e.Type))
	trunc += refPutStr(b[48:48+strMachine], e.Machine)
	trunc += refPutStr(b[72:72+strNode], e.Node)
	trunc += refPutStr(b[96:96+strDetail], e.Detail)
	return refEventSize, trunc
}

func refDecodeEvent(b []byte) telemetry.Event {
	return telemetry.Event{
		Seq:     binary.BigEndian.Uint64(b[0:]),
		At:      time.Duration(binary.BigEndian.Uint64(b[8:])),
		Value:   refGetF64(b[16:]),
		Type:    telemetry.EventType(refGetStr(b[24 : 24+strType])),
		Machine: refGetStr(b[48 : 48+strMachine]),
		Node:    refGetStr(b[72 : 72+strNode]),
		Detail:  refGetStr(b[96 : 96+strDetail]),
	}
}

func refEncodeProbe(b []byte, index int, p *telemetry.TempProbe) (n, trunc int) {
	binary.BigEndian.PutUint16(b[0:], uint16(index))
	b[2], b[3] = 0, 0
	trunc += refPutStr(b[4:4+strMachine], p.Machine)
	trunc += refPutStr(b[28:28+strNode], p.Node)
	return refProbeSize, trunc
}

func refDecodeProbe(b []byte) ProbeRecord {
	return ProbeRecord{
		Index:   int(binary.BigEndian.Uint16(b[0:])),
		Machine: refGetStr(b[4 : 4+strMachine]),
		Node:    refGetStr(b[28 : 28+strNode]),
	}
}

// refEncodeTempChunk writes one chunk of a sampled temperature column:
// probes [first, first+len(vals)) at virtual time at.
func refEncodeTempChunk(b []byte, at time.Duration, first int, vals []float64) int {
	binary.BigEndian.PutUint64(b[0:], uint64(at))
	binary.BigEndian.PutUint16(b[8:], uint16(first))
	binary.BigEndian.PutUint16(b[10:], uint16(len(vals)))
	binary.BigEndian.PutUint32(b[12:], 0)
	for i, v := range vals {
		refPutF64(b[16+8*i:], v)
	}
	for i := len(vals); i < tempChunk; i++ {
		refPutF64(b[16+8*i:], 0)
	}
	return refTempRowSize
}

func refDecodeTempChunk(b []byte) (TempChunk, bool) {
	count := int(binary.BigEndian.Uint16(b[10:]))
	if count > tempChunk {
		return TempChunk{}, false
	}
	c := TempChunk{
		At:    time.Duration(binary.BigEndian.Uint64(b[0:])),
		First: int(binary.BigEndian.Uint16(b[8:])),
		Temps: make([]float64, count),
	}
	for i := range c.Temps {
		c.Temps[i] = refGetF64(b[16+8*i:])
	}
	return c, true
}

func refEncodeUtil(b []byte, tick uint64, at time.Duration, seq uint32, machine string, entries []wire.UtilEntry) (n, trunc int) {
	binary.BigEndian.PutUint64(b[0:], tick)
	binary.BigEndian.PutUint64(b[8:], uint64(at))
	binary.BigEndian.PutUint32(b[16:], seq)
	count := len(entries)
	if count > utilMaxEntries {
		count = utilMaxEntries
		trunc++
	}
	b[20] = byte(count)
	b[21], b[22], b[23] = 0, 0, 0
	trunc += refPutStr(b[24:24+strMachine], machine)
	off := 24 + strMachine
	for i := 0; i < count; i++ {
		trunc += refPutStr(b[off:off+strSource], string(entries[i].Source))
		refPutF64(b[off+strSource:], float64(entries[i].Util))
		off += strSource + 8
	}
	for i := count; i < utilMaxEntries; i++ {
		refPutStr(b[off:off+strSource], "")
		refPutF64(b[off+strSource:], 0)
		off += strSource + 8
	}
	return refUtilSize, trunc
}

func refDecodeUtil(b []byte) (UtilRecord, bool) {
	count := int(b[20])
	if count > utilMaxEntries {
		return UtilRecord{}, false
	}
	u := UtilRecord{
		Tick:    binary.BigEndian.Uint64(b[0:]),
		At:      time.Duration(binary.BigEndian.Uint64(b[8:])),
		Seq:     binary.BigEndian.Uint32(b[16:]),
		Machine: refGetStr(b[24 : 24+strMachine]),
		Entries: make([]wire.UtilEntry, count),
	}
	off := 24 + strMachine
	for i := range u.Entries {
		u.Entries[i] = wire.UtilEntry{
			Source: model.UtilSource(refGetStr(b[off : off+strSource])),
			Util:   units.Fraction(refGetF64(b[off+strSource:])),
		}
		off += strSource + 8
	}
	return u, true
}

func refEncodeFiddle(b []byte, tick uint64, at time.Duration, op *wire.FiddleOp) (n, trunc int) {
	binary.BigEndian.PutUint64(b[0:], tick)
	binary.BigEndian.PutUint64(b[8:], uint64(at))
	b[16] = op.Op
	nstr := len(op.Strings)
	if nstr > fiddleMaxStrings {
		nstr = fiddleMaxStrings
		trunc++
	}
	nfloat := len(op.Floats)
	if nfloat > fiddleMaxFloats {
		nfloat = fiddleMaxFloats
		trunc++
	}
	b[17] = byte(nstr)
	b[18] = byte(nfloat)
	for i := 19; i < 24; i++ {
		b[i] = 0
	}
	off := 24
	for i := 0; i < fiddleMaxStrings; i++ {
		s := ""
		if i < nstr {
			s = op.Strings[i]
		}
		trunc += refPutStr(b[off:off+strMachine], s)
		off += strMachine
	}
	for i := 0; i < fiddleMaxFloats; i++ {
		v := 0.0
		if i < nfloat {
			v = op.Floats[i]
		}
		refPutF64(b[off:], v)
		off += 8
	}
	return refFiddleSize, trunc
}

func refDecodeFiddle(b []byte) (FiddleRecord, bool) {
	nstr := int(b[17])
	nfloat := int(b[18])
	if nstr > fiddleMaxStrings || nfloat > fiddleMaxFloats {
		return FiddleRecord{}, false
	}
	f := FiddleRecord{
		Tick: binary.BigEndian.Uint64(b[0:]),
		At:   time.Duration(binary.BigEndian.Uint64(b[8:])),
		Op:   wire.FiddleOp{Op: b[16]},
	}
	off := 24
	if nstr > 0 {
		f.Op.Strings = make([]string, nstr)
		for i := range f.Op.Strings {
			f.Op.Strings[i] = refGetStr(b[off+i*strMachine : off+(i+1)*strMachine])
		}
	}
	off += fiddleMaxStrings * strMachine
	if nfloat > 0 {
		f.Op.Floats = make([]float64, nfloat)
		for i := range f.Op.Floats {
			f.Op.Floats[i] = refGetF64(b[off+8*i:])
		}
	}
	return f, true
}

// refEncodeBoundaryChunk writes one chunk of an imported boundary
// exchange: node indices and exhaust temps from a neighbouring shard.
func refEncodeBoundaryChunk(b []byte, tick uint64, region int, idx []int32, temps []float64) int {
	binary.BigEndian.PutUint64(b[0:], tick)
	binary.BigEndian.PutUint16(b[8:], uint16(region))
	binary.BigEndian.PutUint16(b[10:], uint16(len(idx)))
	binary.BigEndian.PutUint32(b[12:], 0)
	off := 16
	for i := 0; i < boundaryChunk; i++ {
		var ix int32
		var v float64
		if i < len(idx) {
			ix, v = idx[i], temps[i]
		}
		binary.BigEndian.PutUint32(b[off:], uint32(ix))
		refPutF64(b[off+4:], v)
		off += 12
	}
	return refBoundarySize
}

func refDecodeBoundary(b []byte) (BoundaryRecord, bool) {
	count := int(binary.BigEndian.Uint16(b[10:]))
	if count > boundaryChunk {
		return BoundaryRecord{}, false
	}
	r := BoundaryRecord{
		Tick:   binary.BigEndian.Uint64(b[0:]),
		Region: int(binary.BigEndian.Uint16(b[8:])),
		Index:  make([]int32, count),
		Temps:  make([]float64, count),
	}
	off := 16
	for i := 0; i < count; i++ {
		r.Index[i] = int32(binary.BigEndian.Uint32(b[off:]))
		r.Temps[i] = refGetF64(b[off+4:])
		off += 12
	}
	return r, true
}

func refEncodeMeta(b []byte, step time.Duration, machines int) int {
	binary.BigEndian.PutUint64(b[0:], uint64(step))
	binary.BigEndian.PutUint32(b[8:], uint32(machines))
	binary.BigEndian.PutUint32(b[12:], 0)
	return refMetaSize
}

func refDecodeMeta(b []byte) MetaRecord {
	return MetaRecord{
		Step:     time.Duration(binary.BigEndian.Uint64(b[0:])),
		Machines: int(binary.BigEndian.Uint32(b[8:])),
	}
}

// refDecodeRecord decodes one CRC-valid payload. known is false for
// record types this reader does not understand (forward compat); ok
// is false when a known type's payload is too short or fails bounds
// checks. Payloads longer than the known fixed size are accepted and
// decoded by prefix, so record types can grow fields.
func refDecodeRecord(typ byte, payload []byte) (rec Record, known, ok bool) {
	size := 0
	switch typ {
	case RecFormat:
		size = refFormatSize
	case RecSpan:
		size = refSpanSize
	case RecEvent:
		size = refEventSize
	case RecProbe:
		size = refProbeSize
	case RecTempRow:
		size = refTempRowSize
	case RecUtil:
		size = refUtilSize
	case RecFiddle:
		size = refFiddleSize
	case RecBoundary:
		size = refBoundarySize
	case RecMeta:
		size = refMetaSize
	case RecAlert:
		size = refAlertSize
	default:
		return nil, false, false
	}
	if len(payload) < size {
		return nil, true, false
	}
	switch typ {
	case RecFormat:
		f := refDecodeFormat(payload)
		return &f, true, true
	case RecSpan:
		return &SpanRecord{Span: refDecodeSpan(payload)}, true, true
	case RecEvent:
		return &EventRecord{Event: refDecodeEvent(payload)}, true, true
	case RecProbe:
		p := refDecodeProbe(payload)
		return &p, true, true
	case RecTempRow:
		c, ok := refDecodeTempChunk(payload)
		return &c, true, ok
	case RecUtil:
		u, ok := refDecodeUtil(payload)
		return &u, true, ok
	case RecFiddle:
		f, ok := refDecodeFiddle(payload)
		return &f, true, ok
	case RecBoundary:
		b, ok := refDecodeBoundary(payload)
		return &b, true, ok
	case RecAlert:
		return &AltRecord{Event: refDecodeEvent(payload)}, true, true
	default: // RecMeta
		m := refDecodeMeta(payload)
		return &m, true, true
	}
}

// refRec is one record as the reference Writer put it in a ring cell.
type refRec struct {
	typ     byte
	payload []byte
}

// refWriter replays the reference Writer's Record* bodies — which
// encoder, which chunking, which truncation count — into a slice
// instead of a ring.
type refWriter struct {
	recs  []refRec
	trunc int
}

func (r *refWriter) put(typ byte, b []byte, n, trunc int) {
	r.recs = append(r.recs, refRec{typ, append([]byte(nil), b[:n]...)})
	r.trunc += trunc
}

func (r *refWriter) event(typ byte, e telemetry.Event) {
	var b [cellBuf]byte
	n, trunc := refEncodeEvent(b[:], &e)
	r.put(typ, b[:], n, trunc)
}

func (r *refWriter) span(s causal.Span) {
	var b [cellBuf]byte
	n, trunc := refEncodeSpan(b[:], &s)
	r.put(RecSpan, b[:], n, trunc)
}

func (r *refWriter) probes(probes []telemetry.TempProbe) {
	for i := range probes {
		var b [cellBuf]byte
		n, trunc := refEncodeProbe(b[:], i, &probes[i])
		r.put(RecProbe, b[:], n, trunc)
	}
}

func (r *refWriter) tempRow(at time.Duration, vals []float64) {
	for first := 0; first < len(vals) || first == 0; first += tempChunk {
		chunk := vals[first:min(first+tempChunk, len(vals))]
		var b [cellBuf]byte
		r.put(RecTempRow, b[:], refEncodeTempChunk(b[:], at, first, chunk), 0)
		if first+tempChunk >= len(vals) {
			break
		}
	}
}

func (r *refWriter) util(tick uint64, at time.Duration, seq uint32, machine string, entries []wire.UtilEntry) {
	var b [cellBuf]byte
	n, trunc := refEncodeUtil(b[:], tick, at, seq, machine, entries)
	r.put(RecUtil, b[:], n, trunc)
}

func (r *refWriter) fiddle(tick uint64, at time.Duration, op *wire.FiddleOp) {
	var b [cellBuf]byte
	n, trunc := refEncodeFiddle(b[:], tick, at, op)
	r.put(RecFiddle, b[:], n, trunc)
}

func (r *refWriter) boundary(tick uint64, region int, idx []int32, temps []float64) {
	for first := 0; first < len(idx) || first == 0; first += boundaryChunk {
		hi := min(first+boundaryChunk, len(idx))
		var b [cellBuf]byte
		r.put(RecBoundary, b[:], refEncodeBoundaryChunk(b[:], tick, region, idx[first:hi], temps[first:hi]), 0)
		if first+boundaryChunk >= len(idx) {
			break
		}
	}
}

func (r *refWriter) meta(step time.Duration, machines int) {
	var b [cellBuf]byte
	r.put(RecMeta, b[:], refEncodeMeta(b[:], step, machines), 0)
}
