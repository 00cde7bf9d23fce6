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
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/telemetry"
	"github.com/darklab/mercury/internal/units"
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

// headerSize is the fixed file header:
//
//	magic[8] | version u8 | flags u8 | reserved u16 | epoch i64 (unix ns) | node[32]
const headerSize = 8 + 1 + 1 + 2 + 8 + nodeLen

const nodeLen = 32

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

// Fixed payload sizes per record type.
const (
	recFormatSize   = 4 + strSource + formatLayoutLen                                         // 132
	recSpanSize     = 8 + 8*3 + 8*2 + 8 + 8 + strKind + 2*strMachine                          // 128
	recEventSize    = 8 + 8 + 8 + strType + 2*strMachine + strDetail                          // 160
	recProbeSize    = 2 + 2 + 2*strMachine                                                    // 52
	recTempRowSize  = 8 + 2 + 2 + 4 + tempChunk*8                                             // 464
	recUtilSize     = 8 + 8 + 4 + 1 + 3 + strMachine + utilMaxEntries*(strSource+8)           // 240
	recFiddleSize   = 8 + 8 + 1 + 1 + 1 + 5 + fiddleMaxStrings*strMachine + fiddleMaxFloats*8 // 128
	recBoundarySize = 8 + 2 + 2 + 4 + boundaryChunk*(4+8)                                     // 496
	recMetaSize     = 8 + 4 + 4                                                               // 16
	recAlertSize    = recEventSize                                                            // 160
)

const formatLayoutLen = 112

// Frame overhead around each payload: type u8 | plen u16 | ... | crc32 u32.
const frameOverhead = 3 + 4

// maxPayload bounds what the Writer can frame (the ring cell buffer);
// the largest defined record (RecBoundary, 496 bytes) fits with room
// for future growth.
const maxPayload = 505

var crcTable = crc32.MakeTable(crc32.IEEE)

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

// formats is the writer's descriptor table, emitted at file open.
var formats = []FormatRecord{
	{RecFormat, recFormatSize, "FMT", "BxH z16 z112 type,size,name,layout"},
	{RecSpan, recSpanSize, "SPAN", "Q QQQ qq d Q z16 z24 z24 seq,trace,id,parent,begin,end,value,step,kind,machine,node"},
	{RecEvent, recEventSize, "EVT", "Q q d z24 z24 z24 z64 seq,at,value,type,machine,node,detail"},
	{RecProbe, recProbeSize, "PRB", "H x2 z24 z24 index,machine,node"},
	{RecTempRow, recTempRowSize, "TMP", "q H H x4 56*d at,first,count,temps"},
	{RecUtil, recUtilSize, "UTL", "Q q I B x3 z24 8*(z16 d) tick,at,seq,count,machine,entries"},
	{RecFiddle, recFiddleSize, "FDL", "Q q B B B x5 3*z24 4*d tick,at,op,nstr,nfloat,strings,floats"},
	{RecBoundary, recBoundarySize, "BND", "Q H H x4 40*(I d) tick,region,count,index,exhaust"},
	{RecMeta, recMetaSize, "META", "q I x4 step,machines"},
	{RecAlert, recAlertSize, "ALT", "Q q d z24 z24 z24 z64 seq,at,value,state,machine,node,rule"},
}

// putStr copies s into the fixed-width field b, NUL-padding the
// remainder. Returns 1 if s was truncated, 0 otherwise.
func putStr(b []byte, s string) int {
	n := copy(b, s)
	for i := n; i < len(b); i++ {
		b[i] = 0
	}
	if n < len(s) {
		return 1
	}
	return 0
}

// getStr reads a NUL-padded fixed-width string field.
func getStr(b []byte) string {
	i := 0
	for i < len(b) && b[i] != 0 {
		i++
	}
	return string(b[:i])
}

func putF64(b []byte, v float64) {
	binary.BigEndian.PutUint64(b, math.Float64bits(v))
}

func getF64(b []byte) float64 {
	return math.Float64frombits(binary.BigEndian.Uint64(b))
}

// encodeHeader writes the 52-byte file header.
func encodeHeader(b []byte, flags byte, epoch time.Time, node string) int {
	copy(b[0:8], Magic)
	b[8] = Version
	b[9] = flags
	b[10], b[11] = 0, 0
	binary.BigEndian.PutUint64(b[12:], uint64(epoch.UnixNano()))
	putStr(b[20:20+nodeLen], node)
	return headerSize
}

func encodeFormat(b []byte, f *FormatRecord) int {
	b[0] = f.Of
	b[1] = 0
	binary.BigEndian.PutUint16(b[2:], f.Size)
	putStr(b[4:4+strSource], f.Name)
	putStr(b[4+strSource:4+strSource+formatLayoutLen], f.Layout)
	return recFormatSize
}

func decodeFormat(b []byte) FormatRecord {
	return FormatRecord{
		Of:     b[0],
		Size:   binary.BigEndian.Uint16(b[2:]),
		Name:   getStr(b[4 : 4+strSource]),
		Layout: getStr(b[4+strSource : 4+strSource+formatLayoutLen]),
	}
}

func encodeSpan(b []byte, s *causal.Span) (n, trunc int) {
	binary.BigEndian.PutUint64(b[0:], s.Seq)
	binary.BigEndian.PutUint64(b[8:], s.Trace)
	binary.BigEndian.PutUint64(b[16:], s.ID)
	binary.BigEndian.PutUint64(b[24:], s.Parent)
	binary.BigEndian.PutUint64(b[32:], uint64(s.Begin))
	binary.BigEndian.PutUint64(b[40:], uint64(s.End))
	putF64(b[48:], s.Value)
	binary.BigEndian.PutUint64(b[56:], s.Step)
	trunc += putStr(b[64:64+strKind], string(s.Kind))
	trunc += putStr(b[80:80+strMachine], s.Machine)
	trunc += putStr(b[104:104+strNode], s.Node)
	return recSpanSize, trunc
}

func decodeSpan(b []byte) causal.Span {
	return causal.Span{
		Seq:     binary.BigEndian.Uint64(b[0:]),
		Trace:   binary.BigEndian.Uint64(b[8:]),
		ID:      binary.BigEndian.Uint64(b[16:]),
		Parent:  binary.BigEndian.Uint64(b[24:]),
		Begin:   time.Duration(binary.BigEndian.Uint64(b[32:])),
		End:     time.Duration(binary.BigEndian.Uint64(b[40:])),
		Value:   getF64(b[48:]),
		Step:    binary.BigEndian.Uint64(b[56:]),
		Kind:    causal.Kind(getStr(b[64 : 64+strKind])),
		Machine: getStr(b[80 : 80+strMachine]),
		Node:    getStr(b[104 : 104+strNode]),
	}
}

func encodeEvent(b []byte, e *telemetry.Event) (n, trunc int) {
	binary.BigEndian.PutUint64(b[0:], e.Seq)
	binary.BigEndian.PutUint64(b[8:], uint64(e.At))
	putF64(b[16:], e.Value)
	trunc += putStr(b[24:24+strType], string(e.Type))
	trunc += putStr(b[48:48+strMachine], e.Machine)
	trunc += putStr(b[72:72+strNode], e.Node)
	trunc += putStr(b[96:96+strDetail], e.Detail)
	return recEventSize, trunc
}

func decodeEvent(b []byte) telemetry.Event {
	return telemetry.Event{
		Seq:     binary.BigEndian.Uint64(b[0:]),
		At:      time.Duration(binary.BigEndian.Uint64(b[8:])),
		Value:   getF64(b[16:]),
		Type:    telemetry.EventType(getStr(b[24 : 24+strType])),
		Machine: getStr(b[48 : 48+strMachine]),
		Node:    getStr(b[72 : 72+strNode]),
		Detail:  getStr(b[96 : 96+strDetail]),
	}
}

func encodeProbe(b []byte, index int, p *telemetry.TempProbe) (n, trunc int) {
	binary.BigEndian.PutUint16(b[0:], uint16(index))
	b[2], b[3] = 0, 0
	trunc += putStr(b[4:4+strMachine], p.Machine)
	trunc += putStr(b[28:28+strNode], p.Node)
	return recProbeSize, trunc
}

// ProbeRecord identifies one temperature probe column.
type ProbeRecord struct {
	Index   int
	Machine string
	Node    string
}

func decodeProbe(b []byte) ProbeRecord {
	return ProbeRecord{
		Index:   int(binary.BigEndian.Uint16(b[0:])),
		Machine: getStr(b[4 : 4+strMachine]),
		Node:    getStr(b[28 : 28+strNode]),
	}
}

// encodeTempChunk writes one chunk of a sampled temperature column:
// probes [first, first+len(vals)) at virtual time at.
func encodeTempChunk(b []byte, at time.Duration, first int, vals []float64) int {
	binary.BigEndian.PutUint64(b[0:], uint64(at))
	binary.BigEndian.PutUint16(b[8:], uint16(first))
	binary.BigEndian.PutUint16(b[10:], uint16(len(vals)))
	binary.BigEndian.PutUint32(b[12:], 0)
	for i, v := range vals {
		putF64(b[16+8*i:], v)
	}
	for i := len(vals); i < tempChunk; i++ {
		putF64(b[16+8*i:], 0)
	}
	return recTempRowSize
}

// TempChunk is one decoded RecTempRow: a contiguous slice of the
// probe column sampled at At. Full rows are reassembled by ReadLog.
type TempChunk struct {
	At    time.Duration
	First int
	Temps []float64
}

func decodeTempChunk(b []byte) (TempChunk, bool) {
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
		c.Temps[i] = getF64(b[16+8*i:])
	}
	return c, true
}

func encodeUtil(b []byte, tick uint64, at time.Duration, seq uint32, machine string, entries []wire.UtilEntry) (n, trunc int) {
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
	trunc += putStr(b[24:24+strMachine], machine)
	off := 24 + strMachine
	for i := 0; i < count; i++ {
		trunc += putStr(b[off:off+strSource], string(entries[i].Source))
		putF64(b[off+strSource:], float64(entries[i].Util))
		off += strSource + 8
	}
	for i := count; i < utilMaxEntries; i++ {
		putStr(b[off:off+strSource], "")
		putF64(b[off+strSource:], 0)
		off += strSource + 8
	}
	return recUtilSize, trunc
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

func decodeUtil(b []byte) (UtilRecord, bool) {
	count := int(b[20])
	if count > utilMaxEntries {
		return UtilRecord{}, false
	}
	u := UtilRecord{
		Tick:    binary.BigEndian.Uint64(b[0:]),
		At:      time.Duration(binary.BigEndian.Uint64(b[8:])),
		Seq:     binary.BigEndian.Uint32(b[16:]),
		Machine: getStr(b[24 : 24+strMachine]),
		Entries: make([]wire.UtilEntry, count),
	}
	off := 24 + strMachine
	for i := range u.Entries {
		u.Entries[i] = wire.UtilEntry{
			Source: model.UtilSource(getStr(b[off : off+strSource])),
			Util:   units.Fraction(getF64(b[off+strSource:])),
		}
		off += strSource + 8
	}
	return u, true
}

func encodeFiddle(b []byte, tick uint64, at time.Duration, op *wire.FiddleOp) (n, trunc int) {
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
		trunc += putStr(b[off:off+strMachine], s)
		off += strMachine
	}
	for i := 0; i < fiddleMaxFloats; i++ {
		v := 0.0
		if i < nfloat {
			v = op.Floats[i]
		}
		putF64(b[off:], v)
		off += 8
	}
	return recFiddleSize, trunc
}

// FiddleRecord is one applied fiddle op, stamped with the solver tick
// it was applied after (it influences step Tick+1).
type FiddleRecord struct {
	Tick uint64
	At   time.Duration
	Op   wire.FiddleOp
}

func decodeFiddle(b []byte) (FiddleRecord, bool) {
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
			f.Op.Strings[i] = getStr(b[off+i*strMachine : off+(i+1)*strMachine])
		}
	}
	off += fiddleMaxStrings * strMachine
	if nfloat > 0 {
		f.Op.Floats = make([]float64, nfloat)
		for i := range f.Op.Floats {
			f.Op.Floats[i] = getF64(b[off+8*i:])
		}
	}
	return f, true
}

// encodeBoundaryChunk writes one chunk of an imported boundary
// exchange: node indices and exhaust temps from a neighbouring shard.
func encodeBoundaryChunk(b []byte, tick uint64, region int, idx []int32, temps []float64) int {
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
		putF64(b[off+4:], v)
		off += 12
	}
	return recBoundarySize
}

// BoundaryRecord is one decoded chunk of a boundary-temperature
// import on a sharded run.
type BoundaryRecord struct {
	Tick   uint64
	Region int
	Index  []int32
	Temps  []float64
}

func decodeBoundary(b []byte) (BoundaryRecord, bool) {
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
		r.Temps[i] = getF64(b[off+4:])
		off += 12
	}
	return r, true
}

func encodeMeta(b []byte, step time.Duration, machines int) int {
	binary.BigEndian.PutUint64(b[0:], uint64(step))
	binary.BigEndian.PutUint32(b[8:], uint32(machines))
	binary.BigEndian.PutUint32(b[12:], 0)
	return recMetaSize
}

// MetaRecord carries run metadata needed to rebuild a compatible
// solver: the step size and machine count.
type MetaRecord struct {
	Step     time.Duration
	Machines int
}

func decodeMeta(b []byte) MetaRecord {
	return MetaRecord{
		Step:     time.Duration(binary.BigEndian.Uint64(b[0:])),
		Machines: int(binary.BigEndian.Uint32(b[8:])),
	}
}
