// Package recordlog is Mercury's durable binary flight recorder: a
// compact, self-describing on-disk log of everything a run produces
// (causal spans, telemetry events, temperature rows) and everything
// that drove it (utilization updates, fiddle ops, boundary
// exchanges). A file captured from a live run can back-fill
// mercury-dash after a restart, and — because the solver is
// deterministic on the virtual clock — re-drive a fresh solver
// through cmd/mercury-replay to bit-identical temperatures at warp
// speed.
//
// The format borrows the proven binary-telemetry idiom (MAVLink-style
// dataflash logs): a fixed file header, then format-descriptor
// records declaring each record type's fixed-width payload layout,
// then the data records themselves, each length-prefixed and
// CRC-guarded. Readers skip unknown record types, so old readers can
// walk new files. See docs/recordlog.md for the byte-level layout
// table.
//
// All multi-byte integers are big-endian. Strings are fixed-width,
// NUL-padded, truncated if longer (truncations are counted by the
// Writer). Floats are IEEE-754 bits, big-endian.
package recordlog

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"time"

	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/telemetry"
	"github.com/darklab/mercury/internal/wire"
)

// Magic opens every record log file: 8 bytes, human-greppable.
const Magic = "MRCYLOG1"

// Version is the current header version. Readers reject files with a
// higher major version; record-level evolution (new types, widened
// payloads) does not bump it.
const Version = 1

// Header flags.
const (
	// FlagVirtualClock marks a file recorded on the deterministic
	// virtual clock: the epoch is virtual t=0 and replay can
	// reproduce timestamps exactly.
	FlagVirtualClock = 0x01
)

// headerSize is the fixed file header headerFields covers.
const headerSize = 52

// Record types. RecFormat descriptors for every type known to the
// writer are emitted synchronously right after the header, so a
// reader always learns the payload size of each type before meeting
// one — including types it does not understand.
const (
	RecFormat   byte = 0x00 // format descriptor (this table)
	RecSpan     byte = 0x01 // causal.Span
	RecEvent    byte = 0x02 // telemetry.Event
	RecProbe    byte = 0x03 // temp-probe identity (index -> machine/node)
	RecTempRow  byte = 0x04 // one sampled temperature column (chunked)
	RecUtil     byte = 0x05 // applied utilization update with solver tick
	RecFiddle   byte = 0x06 // applied fiddle op with solver tick
	RecBoundary byte = 0x07 // imported boundary temps (sharded runs)
	RecMeta     byte = 0x08 // run metadata (step size, machine count)
	RecAlert    byte = 0x09 // alert state transition (internal/alert)
)

// Fixed string field widths.
const (
	strKind    = 16 // span kind
	strType    = 24 // event type ("emergency-cleared" is 17 bytes)
	strMachine = 24
	strNode    = 24
	strDetail  = 64
	strSource  = 16 // util source / format name
	strLayout  = 112
	nodeLen    = 32 // header node name
)

// Repeated-group capacities. Larger inputs are chunked across
// multiple records (temp rows, boundaries) or truncated with a count
// (util entries beyond utilMaxEntries never occur: a machine has at
// most a handful of utilization sources).
const (
	tempChunk        = 56 // probes per RecTempRow
	boundaryChunk    = 40 // nodes per RecBoundary
	utilMaxEntries   = 8
	fiddleMaxStrings = 3 // wire.ValidateFiddle caps ops at 3 strings
	fiddleMaxFloats  = 4
)

// Every record is framed as type u8 | plen u16 | payload | crc32 u32:
// frameHead bytes before the payload, frameOverhead bytes in all.
const frameHead, frameOverhead = 3, 3 + 4

var crcTable = crc32.MakeTable(crc32.IEEE)

// frameCRC is the CRC (IEEE) that ends a frame: it covers the head
// (type and length) and the payload.
func frameCRC(head, payload []byte) uint32 {
	return crc32.Update(crc32.Update(0, crcTable, head), crcTable, payload)
}

// FormatRecord describes one record type: its code, fixed payload
// size, short name, and a human-readable layout string (types:
// B=u8 H=u16 I=u32 Q=u64 q=i64ns d=f64 zN=string[N] xN=pad[N],
// n*(...)=repeated group).
type FormatRecord struct {
	Of     byte
	Size   uint16
	Name   string
	Layout string
}

// formats is the writer's descriptor table, emitted at file open and
// indexed by type code. It is the one statement of each layout: the
// field functions below walk exactly Size bytes in Layout order, and
// TestLayoutStrings holds all three equal.
var formats = []FormatRecord{
	{RecFormat, 132, "FMT", "BxH z16 z112 type,size,name,layout"},
	{RecSpan, 128, "SPAN", "Q QQQ qq d Q z16 z24 z24 seq,trace,id,parent,begin,end,value,step,kind,machine,node"},
	{RecEvent, 160, "EVT", "Q q d z24 z24 z24 z64 seq,at,value,type,machine,node,detail"},
	{RecProbe, 52, "PRB", "H x2 z24 z24 index,machine,node"},
	{RecTempRow, 464, "TMP", "q H H x4 56*d at,first,count,temps"},
	{RecUtil, 240, "UTL", "Q q I B x3 z24 8*(z16 d) tick,at,seq,count,machine,entries"},
	{RecFiddle, 128, "FDL", "Q q B B B x5 3*z24 4*d tick,at,op,nstr,nfloat,strings,floats"},
	{RecBoundary, 496, "BND", "Q H H x4 40*(I d) tick,region,count,index,exhaust"},
	{RecMeta, 16, "META", "q I x4 step,machines"},
	{RecAlert, 160, "ALT", "Q q d z24 z24 z24 z64 seq,at,value,state,machine,node,rule"},
}

// cursor walks one fixed-layout payload field by field. A single
// field function per record type drives it both ways: encoding (dec
// false) writes each field at off, decoding reads it back. trunc
// counts strings and groups cut to fit; bad marks a decoded group
// count out of range.
type cursor struct {
	b     []byte
	off   int
	dec   bool
	trunc int
	bad   bool
}

// next returns the following n bytes of the payload.
func (c *cursor) next(n int) []byte {
	b := c.b[c.off : c.off+n]
	c.off += n
	return b
}

// pad covers n bytes of zero padding.
func (c *cursor) pad(n int) {
	if b := c.next(n); !c.dec {
		clear(b)
	}
}

type integer interface {
	~int | ~int32 | ~int64 | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// u64, u32, u16 and u8 cover a big-endian field of the layout's Q or q,
// I, H and B; any integer type converts to and from it as a cast does.
func u64[T integer](c *cursor, v *T) {
	if b := c.next(8); c.dec {
		*v = T(binary.BigEndian.Uint64(b))
	} else {
		binary.BigEndian.PutUint64(b, uint64(*v))
	}
}

func u32[T integer](c *cursor, v *T) {
	if b := c.next(4); c.dec {
		*v = T(binary.BigEndian.Uint32(b))
	} else {
		binary.BigEndian.PutUint32(b, uint32(*v))
	}
}

func u16[T integer](c *cursor, v *T) {
	if b := c.next(2); c.dec {
		*v = T(binary.BigEndian.Uint16(b))
	} else {
		binary.BigEndian.PutUint16(b, uint16(*v))
	}
}

func u8[T integer](c *cursor, v *T) {
	if b := c.next(1); c.dec {
		*v = T(b[0])
	} else {
		b[0] = byte(*v)
	}
}

func f64[T ~float64](c *cursor, v *T) {
	if b := c.next(8); c.dec {
		*v = T(math.Float64frombits(binary.BigEndian.Uint64(b)))
	} else {
		binary.BigEndian.PutUint64(b, math.Float64bits(float64(*v)))
	}
}

// str covers an n-byte NUL-padded string; encoding truncates (and
// counts) a longer one.
func str[T ~string](c *cursor, v *T, n int) {
	b := c.next(n)
	if c.dec {
		i := 0
		for i < len(b) && b[i] != 0 {
			i++
		}
		*v = T(b[:i])
		return
	}
	k := copy(b, *v)
	clear(b[k:])
	if k < len(*v) {
		c.trunc++
	}
}

// count covers a repeated group's length, stored in width bytes (1 or
// 2, the layout's B or H) and at most max. Encoding, have is clamped
// to max (a cut counts as a truncation) and written; decoding, the
// stored count is read, and one over max marks the payload bad and
// reads as 0. The group itself always covers every slot: element
// i < count is the record's, the rest go through a zero spare — zeros
// on encode, discarded on decode.
func (c *cursor) count(have, max, width int) int {
	n := min(have, max)
	if n < have {
		c.trunc++
	}
	if width == 2 {
		u16(c, &n)
	} else {
		u8(c, &n)
	}
	if n > max {
		c.bad = true
		return 0
	}
	return n
}

// headerFields covers the file header (magic, version, flags,
// reserved, epoch, node). It is not a framed record, so its size is
// headerSize rather than a formats entry.
func headerFields(c *cursor, magic *string, h *Header) {
	str(c, magic, len(Magic))
	u8(c, &h.Version)
	u8(c, &h.Flags)
	c.pad(2)
	ns := h.Epoch.UnixNano()
	u64(c, &ns)
	str(c, &h.Node, nodeLen)
	if c.dec {
		h.Epoch = time.Unix(0, ns)
	}
}

func formatFields(c *cursor, f *FormatRecord) {
	u8(c, &f.Of)
	c.pad(1)
	u16(c, &f.Size)
	str(c, &f.Name, strSource)
	str(c, &f.Layout, strLayout)
}

func spanFields(c *cursor, s *causal.Span) {
	u64(c, &s.Seq)
	u64(c, &s.Trace)
	u64(c, &s.ID)
	u64(c, &s.Parent)
	u64(c, &s.Begin)
	u64(c, &s.End)
	f64(c, &s.Value)
	u64(c, &s.Step)
	str(c, &s.Kind, strKind)
	str(c, &s.Machine, strMachine)
	str(c, &s.Node, strNode)
}

// eventFields covers both EVT and ALT records.
func eventFields(c *cursor, e *telemetry.Event) {
	u64(c, &e.Seq)
	u64(c, &e.At)
	f64(c, &e.Value)
	str(c, &e.Type, strType)
	str(c, &e.Machine, strMachine)
	str(c, &e.Node, strNode)
	str(c, &e.Detail, strDetail)
}

// ProbeRecord identifies one temperature probe column.
type ProbeRecord struct {
	Index   int
	Machine string
	Node    string
}

func probeFields(c *cursor, p *ProbeRecord) {
	u16(c, &p.Index)
	c.pad(2)
	str(c, &p.Machine, strMachine)
	str(c, &p.Node, strNode)
}

// TempChunk is one decoded RecTempRow: a contiguous slice of the
// probe column sampled at At. Full rows are reassembled by ReadLog.
type TempChunk struct {
	At    time.Duration
	First int
	Temps []float64
}

func tempFields(c *cursor, t *TempChunk) {
	u64(c, &t.At)
	u16(c, &t.First)
	n := c.count(len(t.Temps), tempChunk, 2)
	c.pad(4)
	if c.dec {
		t.Temps = make([]float64, n)
	}
	var spare float64
	for i := range tempChunk {
		v := &spare
		if i < n {
			v = &t.Temps[i]
		}
		f64(c, v)
	}
}

// UtilRecord is one applied utilization update: which solver tick it
// was applied before (the update influences step Tick+1), the wire
// sequence number, and the per-source fractions.
type UtilRecord struct {
	Tick    uint64
	At      time.Duration
	Seq     uint32
	Machine string
	Entries []wire.UtilEntry
}

func utilFields(c *cursor, u *UtilRecord) {
	u64(c, &u.Tick)
	u64(c, &u.At)
	u32(c, &u.Seq)
	n := c.count(len(u.Entries), utilMaxEntries, 1)
	c.pad(3)
	str(c, &u.Machine, strMachine)
	if c.dec {
		u.Entries = make([]wire.UtilEntry, n)
	}
	var spare wire.UtilEntry
	for i := range utilMaxEntries {
		e := &spare
		if i < n {
			e = &u.Entries[i]
		}
		str(c, &e.Source, strSource)
		f64(c, &e.Util)
	}
}

// FiddleRecord is one applied fiddle op, stamped with the solver tick
// it was applied after (it influences step Tick+1).
type FiddleRecord struct {
	Tick uint64
	At   time.Duration
	Op   wire.FiddleOp
}

func fiddleFields(c *cursor, f *FiddleRecord) {
	u64(c, &f.Tick)
	u64(c, &f.At)
	u8(c, &f.Op.Op)
	nstr := c.count(len(f.Op.Strings), fiddleMaxStrings, 1)
	nfloat := c.count(len(f.Op.Floats), fiddleMaxFloats, 1)
	c.pad(5)
	if c.dec && nstr > 0 {
		f.Op.Strings = make([]string, nstr)
	}
	if c.dec && nfloat > 0 {
		f.Op.Floats = make([]float64, nfloat)
	}
	var spareStr string
	for i := range fiddleMaxStrings {
		s := &spareStr
		if i < nstr {
			s = &f.Op.Strings[i]
		}
		str(c, s, strMachine)
	}
	var spareFloat float64
	for i := range fiddleMaxFloats {
		v := &spareFloat
		if i < nfloat {
			v = &f.Op.Floats[i]
		}
		f64(c, v)
	}
}

// BoundaryRecord is one decoded chunk of a boundary-temperature
// import on a sharded run.
type BoundaryRecord struct {
	Tick   uint64
	Region int
	Index  []int32
	Temps  []float64
}

func boundaryFields(c *cursor, r *BoundaryRecord) {
	u64(c, &r.Tick)
	u16(c, &r.Region)
	n := c.count(len(r.Index), boundaryChunk, 2)
	c.pad(4)
	if c.dec {
		r.Index = make([]int32, n)
		r.Temps = make([]float64, n)
	}
	var spareIx int32
	var spareT float64
	for i := range boundaryChunk {
		ix, v := &spareIx, &spareT
		if i < n {
			ix, v = &r.Index[i], &r.Temps[i]
		}
		u32(c, ix)
		f64(c, v)
	}
}

// MetaRecord carries run metadata needed to rebuild a compatible
// solver: the step size and machine count.
type MetaRecord struct {
	Step     time.Duration
	Machines int
}

func metaFields(c *cursor, m *MetaRecord) {
	u64(c, &m.Step)
	u32(c, &m.Machines)
	c.pad(4)
}
