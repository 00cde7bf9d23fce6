package recordlog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/telemetry"
)

// ErrTruncated marks a file that ends mid-frame — the normal tail
// state of a log whose writer was killed (or is still running).
// Matched by errors.Is on the *TruncatedError returned from Next.
var ErrTruncated = errors.New("recordlog: truncated record at end of file")

// TruncatedError reports a frame cut off by end-of-file.
type TruncatedError struct {
	Offset int64 // file offset of the truncated frame
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("recordlog: truncated record at offset %d", e.Offset)
}

func (e *TruncatedError) Is(target error) bool { return target == ErrTruncated }

// CorruptError reports mid-file corruption: a CRC mismatch or a
// payload that fails bounds checks. Unlike a truncated tail this is
// fatal — framing can no longer be trusted.
type CorruptError struct {
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("recordlog: corrupt record at offset %d: %s", e.Offset, e.Reason)
}

// Header is the decoded file header.
type Header struct {
	Version byte
	Flags   byte
	Epoch   time.Time
	Node    string
}

// Virtual reports whether the file was recorded on the deterministic
// virtual clock.
func (h Header) Virtual() bool { return h.Flags&FlagVirtualClock != 0 }

// Record is any decoded record. The concrete types are
// *FormatRecord, *causal.Span (via SpanRecord), etc. — switch on the
// wrapper types below.
type Record interface{ rec() }

// SpanRecord wraps a decoded causal span.
type SpanRecord struct{ Span causal.Span }

// EventRecord wraps a decoded telemetry event.
type EventRecord struct{ Event telemetry.Event }

// AltRecord wraps a decoded alert state transition. The payload
// mirrors RecEvent: Type is the transition
// (alert-pending/firing/resolved), Detail the rule name.
type AltRecord struct{ Event telemetry.Event }

func (*FormatRecord) rec()   {}
func (*SpanRecord) rec()     {}
func (*EventRecord) rec()    {}
func (*ProbeRecord) rec()    {}
func (*TempChunk) rec()      {}
func (*UtilRecord) rec()     {}
func (*FiddleRecord) rec()   {}
func (*BoundaryRecord) rec() {}
func (*MetaRecord) rec()     {}
func (*AltRecord) rec()      {}

// Reader streams records from one flight-recorder file. Decode
// errors are strict: a truncated tail returns *TruncatedError
// (tolerated by ReadLog), anything else mid-file returns
// *CorruptError with the offending offset. Records of unknown type
// with a valid CRC are skipped and counted.
type Reader struct {
	br      *bufio.Reader
	off     int64
	hdr     Header
	skipped uint64
	scratch []byte
}

// NewReader reads the header from r and returns a Reader positioned
// at the first record.
func NewReader(r io.Reader) (*Reader, error) {
	rd := &Reader{br: bufio.NewReaderSize(r, 1<<16)}
	var hdr [headerSize]byte
	n, err := io.ReadFull(rd.br, hdr[:])
	rd.off = int64(n)
	if err != nil {
		return nil, fmt.Errorf("recordlog: short header: %w", err)
	}
	var magic string
	headerFields(&cursor{b: hdr[:], dec: true}, &magic, &rd.hdr)
	if magic != Magic {
		return nil, fmt.Errorf("recordlog: bad magic %q", magic)
	}
	if rd.hdr.Version > Version {
		return nil, fmt.Errorf("recordlog: unsupported version %d (reader speaks %d)", rd.hdr.Version, Version)
	}
	return rd, nil
}

// Header returns the decoded file header.
func (r *Reader) Header() Header { return r.hdr }

// Skipped returns the number of valid records of unknown type
// skipped so far.
func (r *Reader) Skipped() uint64 { return r.skipped }

// Offset returns the file offset of the next unread byte.
func (r *Reader) Offset() int64 { return r.off }

// Next returns the next decoded record. io.EOF marks a clean end of
// file; *TruncatedError a frame cut off by EOF; *CorruptError
// unrecoverable mid-file damage. Unknown record types with valid
// CRCs are skipped transparently.
func (r *Reader) Next() (Record, error) {
	for {
		start := r.off
		var head [frameHead]byte
		if _, err := io.ReadFull(r.br, head[:]); err == io.EOF {
			return nil, io.EOF
		} else if err != nil {
			return nil, &TruncatedError{Offset: start}
		}
		typ := head[0]
		plen := int(binary.BigEndian.Uint16(head[1:]))
		if cap(r.scratch) < plen+4 {
			r.scratch = make([]byte, plen+4)
		}
		body := r.scratch[:plen+4]
		if _, err := io.ReadFull(r.br, body); err != nil {
			return nil, &TruncatedError{Offset: start}
		}
		r.off = start + int64(frameOverhead+plen)
		payload := body[:plen]
		want := binary.BigEndian.Uint32(body[plen:])
		if crc := frameCRC(head[:], payload); crc != want {
			return nil, &CorruptError{Offset: start, Reason: fmt.Sprintf("crc mismatch (got %08x want %08x)", crc, want)}
		}
		rec, known, ok := decodeRecord(typ, payload)
		if !known {
			r.skipped++
			continue
		}
		if !ok {
			return nil, &CorruptError{Offset: start, Reason: fmt.Sprintf("record type 0x%02x payload %d bytes fails bounds check", typ, plen)}
		}
		return rec, nil
	}
}

// decoders holds the decoder of every record type this reader
// knows, indexed by type code; each runs the type's field function
// over a decoding cursor.
var decoders = [...]func(*cursor) Record{
	RecFormat:   func(c *cursor) Record { r := new(FormatRecord); formatFields(c, r); return r },
	RecSpan:     func(c *cursor) Record { r := new(SpanRecord); spanFields(c, &r.Span); return r },
	RecEvent:    func(c *cursor) Record { r := new(EventRecord); eventFields(c, &r.Event); return r },
	RecProbe:    func(c *cursor) Record { r := new(ProbeRecord); probeFields(c, r); return r },
	RecTempRow:  func(c *cursor) Record { r := new(TempChunk); tempFields(c, r); return r },
	RecUtil:     func(c *cursor) Record { r := new(UtilRecord); utilFields(c, r); return r },
	RecFiddle:   func(c *cursor) Record { r := new(FiddleRecord); fiddleFields(c, r); return r },
	RecBoundary: func(c *cursor) Record { r := new(BoundaryRecord); boundaryFields(c, r); return r },
	RecMeta:     func(c *cursor) Record { r := new(MetaRecord); metaFields(c, r); return r },
	RecAlert:    func(c *cursor) Record { r := new(AltRecord); eventFields(c, &r.Event); return r },
}

// decodeRecord decodes one CRC-valid payload. known is false for
// record types this reader does not understand (forward compat); ok
// is false when a known type's payload is too short or fails bounds
// checks. Payloads longer than the known fixed size are accepted and
// decoded by prefix, so record types can grow fields.
func decodeRecord(typ byte, payload []byte) (rec Record, known, ok bool) {
	if int(typ) >= len(decoders) {
		return nil, false, false
	}
	if len(payload) < int(formats[typ].Size) {
		return nil, true, false
	}
	c := cursor{b: payload, dec: true}
	rec = decoders[typ](&c)
	return rec, true, !c.bad
}

// Input is one recorded solver input in file order: exactly one of
// Util or Fiddle is set. Tick is the solver step count at apply time;
// replay applies the input before stepping tick Tick+1.
type Input struct {
	Tick   uint64
	At     time.Duration
	Util   *UtilRecord
	Fiddle *FiddleRecord
}

// TempRow is one reassembled temperature column: every probe at At.
type TempRow struct {
	At    time.Duration
	Temps []float64
}

// Log is a fully-decoded flight-recorder file.
type Log struct {
	Header    Header
	Formats   []FormatRecord
	Step      time.Duration // from RecMeta; 0 if absent
	Machines  int
	Probes    []telemetry.TempProbe
	Events    []telemetry.Event
	Alerts    []telemetry.Event // ALT records: alert transitions, file order
	Spans     []causal.Span
	TempRows  []TempRow
	Inputs    []Input // utils + fiddles, file order preserved
	Boundary  []BoundaryRecord
	Truncated bool // file ended mid-frame (writer killed or live)
	Skipped   uint64
}

// ReadLog decodes an entire capture, stitching rotation segments
// (base.mrl, base.1.mrl, base.2.mrl, …) in sequence into one Log. A
// truncated tail on the last segment is tolerated (Log.Truncated is
// set); corruption is returned as *CorruptError.
func ReadLog(path string) (*Log, error) {
	log := &Log{}
	rowIdx := -1
	if err := readSegment(log, path, true, &rowIdx); err != nil {
		return nil, err
	}
	for seg := 1; !log.Truncated; seg++ {
		p := SegmentPath(path, seg)
		if _, err := os.Stat(p); err != nil {
			break
		}
		if err := readSegment(log, p, false, &rowIdx); err != nil {
			return nil, err
		}
	}
	return log, nil
}

// readSegment decodes one segment file into log. Non-first segments
// skip their (identical) descriptor table; their re-emitted META and
// probe records overwrite idempotently. rowIdx carries the temp-row
// reassembly cursor across segments — a chunked row can straddle a
// rotation boundary.
func readSegment(log *Log, path string, first bool, rowIdx *int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := NewReader(f)
	if err != nil {
		return err
	}
	if first {
		log.Header = r.Header()
	}
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			if errors.Is(err, ErrTruncated) {
				log.Truncated = true
				break
			}
			return err
		}
		switch v := rec.(type) {
		case *FormatRecord:
			if first {
				log.Formats = append(log.Formats, *v)
			}
		case *MetaRecord:
			log.Step = v.Step
			log.Machines = v.Machines
		case *ProbeRecord:
			for len(log.Probes) <= v.Index {
				log.Probes = append(log.Probes, telemetry.TempProbe{})
			}
			log.Probes[v.Index] = telemetry.TempProbe{Machine: v.Machine, Node: v.Node}
		case *EventRecord:
			log.Events = append(log.Events, v.Event)
		case *AltRecord:
			log.Alerts = append(log.Alerts, v.Event)
		case *SpanRecord:
			log.Spans = append(log.Spans, v.Span)
		case *TempChunk:
			// Chunks of one column share a timestamp and arrive in
			// order; reassemble them into a full row.
			var row *TempRow
			if *rowIdx >= 0 {
				row = &log.TempRows[*rowIdx]
			}
			if v.First == 0 || row == nil || row.At != v.At || len(row.Temps) != v.First {
				log.TempRows = append(log.TempRows, TempRow{At: v.At})
				*rowIdx = len(log.TempRows) - 1
				row = &log.TempRows[*rowIdx]
			}
			row.Temps = append(row.Temps, v.Temps...)
		case *UtilRecord:
			log.Inputs = append(log.Inputs, Input{Tick: v.Tick, At: v.At, Util: v})
		case *FiddleRecord:
			log.Inputs = append(log.Inputs, Input{Tick: v.Tick, At: v.At, Fiddle: v})
		case *BoundaryRecord:
			log.Boundary = append(log.Boundary, *v)
		}
	}
	log.Skipped += r.Skipped()
	return nil
}
