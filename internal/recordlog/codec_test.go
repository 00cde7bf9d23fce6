package recordlog

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/telemetry"
	"github.com/darklab/mercury/internal/units"
	"github.com/darklab/mercury/internal/wire"
)

// encode runs fields over v into b and returns the payload length and
// the truncation count.
func encode[T any](b []byte, fields func(*cursor, *T), v *T) (n, trunc int) {
	c := cursor{b: b}
	fields(&c, v)
	return c.off, c.trunc
}

// encodeRecord runs rec's field function over b as an encoder.
func encodeRecord(b []byte, rec Record) (n, trunc int) {
	switch r := rec.(type) {
	case *FormatRecord:
		return encode(b, formatFields, r)
	case *SpanRecord:
		return encode(b, spanFields, &r.Span)
	case *EventRecord:
		return encode(b, eventFields, &r.Event)
	case *AltRecord:
		return encode(b, eventFields, &r.Event)
	case *ProbeRecord:
		return encode(b, probeFields, r)
	case *TempChunk:
		return encode(b, tempFields, r)
	case *UtilRecord:
		return encode(b, utilFields, r)
	case *FiddleRecord:
		return encode(b, fiddleFields, r)
	case *BoundaryRecord:
		return encode(b, boundaryFields, r)
	case *MetaRecord:
		return encode(b, metaFields, r)
	}
	panic(fmt.Sprintf("no field function for %T", rec))
}

// payloadOf returns rec's encoded payload.
func payloadOf(rec Record) []byte {
	var b [cellBuf]byte
	n, _ := encodeRecord(b[:], rec)
	return append([]byte(nil), b[:n]...)
}

// refEncodeRecord encodes rec with the reference encoder of its type.
func refEncodeRecord(b []byte, rec Record) (n, trunc int) {
	switch r := rec.(type) {
	case *FormatRecord:
		return refEncodeFormat(b, r), 0
	case *SpanRecord:
		return refEncodeSpan(b, &r.Span)
	case *EventRecord:
		return refEncodeEvent(b, &r.Event)
	case *AltRecord:
		return refEncodeEvent(b, &r.Event)
	case *ProbeRecord:
		return refEncodeProbe(b, r.Index, &telemetry.TempProbe{Machine: r.Machine, Node: r.Node})
	case *TempChunk:
		return refEncodeTempChunk(b, r.At, r.First, r.Temps), 0
	case *UtilRecord:
		return refEncodeUtil(b, r.Tick, r.At, r.Seq, r.Machine, r.Entries)
	case *FiddleRecord:
		return refEncodeFiddle(b, r.Tick, r.At, &r.Op)
	case *BoundaryRecord:
		return refEncodeBoundaryChunk(b, r.Tick, r.Region, r.Index, r.Temps), 0
	case *MetaRecord:
		return refEncodeMeta(b, r.Step, r.Machines), 0
	}
	panic(fmt.Sprintf("no reference encoder for %T", rec))
}

// sameBits is reflect.DeepEqual with floats compared bit for bit, so
// NaN payloads and -0 count.
func sameBits(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() || a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return a.Equal(b)
}

// checkDecode decodes payload with both codecs and reports the first
// difference: known, ok, the decoded value, and — for a valid record
// — the bytes and truncations of encoding it again.
func checkDecode(typ byte, payload []byte) error {
	rec, known, ok := decodeRecord(typ, payload)
	want, wantKnown, wantOK := refDecodeRecord(typ, payload)
	if known != wantKnown || ok != wantOK {
		return fmt.Errorf("type 0x%02x len %d: known,ok = %v,%v, reference %v,%v", typ, len(payload), known, ok, wantKnown, wantOK)
	}
	if !ok {
		return nil
	}
	if !sameBits(reflect.ValueOf(rec), reflect.ValueOf(want)) {
		return fmt.Errorf("type 0x%02x: decoded %+v, reference %+v", typ, rec, want)
	}
	var got, ref [cellBuf]byte
	n, trunc := encodeRecord(got[:], rec)
	wn, wtrunc := refEncodeRecord(ref[:], want)
	if string(got[:n]) != string(ref[:wn]) || trunc != wtrunc {
		return fmt.Errorf("type 0x%02x: re-encoding differs (%d bytes, %d cut; reference %d bytes, %d cut)", typ, n, trunc, wn, wtrunc)
	}
	return nil
}

// Generators that reach past every limit: over-long strings (with
// stray NULs and high bytes), over-cap groups, and float bit patterns
// arithmetic never makes.

func wildString(rng *rand.Rand, width int) string {
	b := make([]byte, rng.Intn(width+8))
	for i := range b {
		if rng.Intn(8) == 0 {
			b[i] = byte(rng.Intn(256))
		} else {
			b[i] = byte('a' + rng.Intn(26))
		}
	}
	return string(b)
}

func wildFloat(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return math.Float64frombits(0x7ff0000000000001 | rng.Uint64()&0x000fffffffffffff) // NaN, random payload
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Inf(1 - 2*rng.Intn(2))
	case 3:
		return math.Float64frombits(rng.Uint64())
	}
	return rng.NormFloat64()
}

func wildFloats(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = wildFloat(rng)
	}
	return v
}

func wildEvent(rng *rand.Rand) telemetry.Event {
	return telemetry.Event{
		Seq:     rng.Uint64(),
		At:      time.Duration(rng.Uint64()),
		Type:    telemetry.EventType(wildString(rng, strType)),
		Machine: wildString(rng, strMachine),
		Node:    wildString(rng, strNode),
		Value:   wildFloat(rng),
		Detail:  wildString(rng, strDetail),
	}
}

func wildSpan(rng *rand.Rand) causal.Span {
	return causal.Span{
		Seq: rng.Uint64(), Trace: rng.Uint64(), ID: rng.Uint64(), Parent: rng.Uint64(),
		Kind:  causal.Kind(wildString(rng, strKind)),
		Begin: time.Duration(rng.Uint64()), End: time.Duration(rng.Uint64()),
		Machine: wildString(rng, strMachine), Node: wildString(rng, strNode),
		Value: wildFloat(rng), Step: rng.Uint64(),
	}
}

// pickLen draws a group length from the edges that matter — empty,
// one, exactly a chunk, one past it — or anywhere up to limit.
func pickLen(rng *rand.Rand, chunk, limit int) int {
	switch rng.Intn(5) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return chunk
	case 3:
		return chunk + 1
	}
	return rng.Intn(limit + 1)
}

// takeCells pops every published cell off an undrained Writer's ring.
func takeCells(w *Writer) (out []refRec) {
	for {
		pos := w.deq.Load()
		c := &w.cells[pos&w.mask]
		if c.seq.Load() != pos+1 {
			return out
		}
		out = append(out, refRec{c.typ, append([]byte(nil), c.buf[:c.n]...)})
		c.seq.Store(pos + w.mask + 1)
		w.deq.Store(pos + 1)
	}
}

// codecKinds are the Writer calls the differential drives, one per
// record type (EVT and ALT separately, though they share a layout).
var codecKinds = []string{"EVT", "ALT", "SPAN", "PRB", "TMP", "UTL", "FDL", "BND", "META"}

// driveBoth makes one random call of the given kind on the Writer and
// on the reference writer.
func driveBoth(rng *rand.Rand, kind string, w *Writer, ref *refWriter, clk *clock.Virtual) {
	clk.Advance(time.Duration(rng.Intn(5000)) * time.Microsecond)
	at := clk.Now().Sub(w.epoch)
	switch kind {
	case "EVT", "ALT":
		e := wildEvent(rng)
		if kind == "EVT" {
			w.RecordEvent(e)
			ref.event(RecEvent, e)
		} else {
			w.RecordAlert(e)
			ref.event(RecAlert, e)
		}
	case "SPAN":
		s := wildSpan(rng)
		w.RecordSpan(s)
		ref.span(s)
	case "PRB":
		probes := make([]telemetry.TempProbe, rng.Intn(5))
		for i := range probes {
			probes[i] = telemetry.TempProbe{Machine: wildString(rng, strMachine), Node: wildString(rng, strNode)}
		}
		w.SetProbes(probes)
		ref.probes(probes)
	case "TMP":
		n := pickLen(rng, tempChunk, 200)
		if rng.Intn(5) == 0 {
			n = 200
		}
		vals := wildFloats(rng, n)
		at := time.Duration(rng.Uint64())
		w.RecordTempRow(at, vals)
		ref.tempRow(at, vals)
	case "UTL":
		entries := make([]wire.UtilEntry, pickLen(rng, utilMaxEntries, utilMaxEntries+4))
		for i := range entries {
			entries[i] = wire.UtilEntry{Source: model.UtilSource(wildString(rng, strSource)), Util: units.Fraction(wildFloat(rng))}
		}
		tick, seq, machine := rng.Uint64(), rng.Uint32(), wildString(rng, strMachine)
		w.RecordUtil(tick, machine, seq, entries)
		ref.util(tick, at, seq, machine, entries)
	case "FDL":
		op := wire.FiddleOp{Op: byte(rng.Intn(256))}
		for i := pickLen(rng, fiddleMaxStrings, fiddleMaxStrings+2); i > 0; i-- {
			op.Strings = append(op.Strings, wildString(rng, strMachine))
		}
		op.Floats = wildFloats(rng, pickLen(rng, fiddleMaxFloats, fiddleMaxFloats+2))
		tick := rng.Uint64()
		w.RecordFiddle(tick, &op)
		ref.fiddle(tick, at, &op)
	case "BND":
		n := pickLen(rng, boundaryChunk, 130)
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(rng.Uint32())
		}
		temps := wildFloats(rng, n)
		tick, region := rng.Uint64(), rng.Intn(1<<17)
		w.RecordBoundary(tick, region, idx, temps)
		ref.boundary(tick, region, idx, temps)
	case "META":
		// rng.Intn(1<<34)'s draw, which int holds only where it is 64 bits.
		step, machines := time.Duration(rng.Uint64()), int(rng.Int63n(1<<34))
		w.RecordMeta(step, machines)
		ref.meta(step, machines)
	}
}

// TestCodecDifferential holds the field-function codec to the frozen
// reference codec (reference_test.go). Encoding: 20 000 seeded random
// calls of every Writer method, through the real claim/publish path,
// must put the same records, byte for byte, in the ring and count the
// same truncations. Decoding: random, truncated and bit-flipped
// payloads of every type must decode to the same values and ok.
func TestCodecDifferential(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	rng := rand.New(rand.NewSource(27))
	clk := clock.NewVirtual()
	w, err := newWriter(tempPath(t), "diff", clk, writerConfig{ringSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		go w.drain()
		w.Close()
	}()
	valid := map[byte][][]byte{}
	for i := range formats {
		valid[RecFormat] = append(valid[RecFormat], payloadOf(&formats[i]))
	}
	for _, kind := range codecKinds {
		for i := 0; i < n; i++ {
			ref := refWriter{}
			before := w.Truncated()
			driveBoth(rng, kind, w, &ref, clk)
			got := takeCells(w)
			if trunc := int(w.Truncated() - before); trunc != ref.trunc {
				t.Fatalf("%s call %d: %d truncations, reference %d", kind, i, trunc, ref.trunc)
			}
			if len(got) != len(ref.recs) {
				t.Fatalf("%s call %d: %d records, reference %d", kind, i, len(got), len(ref.recs))
			}
			for j := range got {
				if got[j].typ != ref.recs[j].typ || string(got[j].payload) != string(ref.recs[j].payload) {
					t.Fatalf("%s call %d record %d: type 0x%02x %x\nreference type 0x%02x %x",
						kind, i, j, got[j].typ, got[j].payload, ref.recs[j].typ, ref.recs[j].payload)
				}
				if len(valid[got[j].typ]) < 256 {
					valid[got[j].typ] = append(valid[got[j].typ], got[j].payload)
				}
			}
		}
	}
	if w.Drops() != 0 {
		t.Fatalf("%d drops: the ring must be drained between calls", w.Drops())
	}

	for typ := 0; typ < len(formats)+3; typ++ {
		size := 64
		if typ < len(formats) {
			size = int(formats[typ].Size)
		}
		for i := 0; i < n; i++ {
			var p []byte
			switch i % 4 {
			case 0: // random bytes, full length or longer
				p = make([]byte, size+rng.Intn(16))
				rng.Read(p)
			case 1: // random bytes, short
				p = make([]byte, rng.Intn(size+1))
				rng.Read(p)
			case 2, 3: // a valid record with bits flipped, or cut short
				if pool := valid[byte(typ)]; len(pool) > 0 {
					p = append([]byte(nil), pool[rng.Intn(len(pool))]...)
				} else {
					p = make([]byte, size)
				}
				if i%4 == 2 {
					for k := 1 + rng.Intn(3); k > 0; k-- {
						p[rng.Intn(len(p))] ^= 1 << rng.Intn(8)
					}
				} else {
					p = p[:rng.Intn(len(p)+1)]
				}
			}
			if err := checkDecode(byte(typ), p); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestHeaderDifferential: the header goes through the same cursor and
// must match the reference encoder byte for byte.
func TestHeaderDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		flags, epoch, node := byte(rng.Intn(256)), time.Unix(0, int64(rng.Uint64())), wildString(rng, nodeLen)
		var got, want [headerSize]byte
		magic := Magic
		c := cursor{b: got[:]}
		headerFields(&c, &magic, &Header{Version: Version, Flags: flags, Epoch: epoch, Node: node})
		refEncodeHeader(want[:], flags, epoch, node)
		if c.off != headerSize || got != want {
			t.Fatalf("header %d: %x (%d bytes)\nreference %x", i, got, c.off, want)
		}
	}
}

// FuzzCodecDifferential decodes arbitrary payloads of any type code
// with both codecs, and re-encodes what they accept: values, ok and
// bytes must agree.
func FuzzCodecDifferential(f *testing.F) {
	for i := range formats {
		f.Add(byte(i), make([]byte, formats[i].Size))
	}
	rng := rand.New(rand.NewSource(3))
	e := wildEvent(rng)
	f.Add(RecEvent, payloadOf(&EventRecord{Event: e}))
	f.Add(RecUtil, payloadOf(&UtilRecord{Machine: "m1", Entries: []wire.UtilEntry{{Source: model.UtilCPU, Util: 0.5}}}))
	f.Add(RecFiddle, payloadOf(&FiddleRecord{Op: wire.FiddleOp{Op: wire.OpPinInlet, Strings: []string{"m1"}, Floats: []float64{40}}}))
	f.Add(RecTempRow, payloadOf(&TempChunk{First: 56, Temps: []float64{1, math.NaN()}}))
	f.Add(RecBoundary, payloadOf(&BoundaryRecord{Region: 1, Index: []int32{-1, 7}, Temps: []float64{2, 3}}))
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		if err := checkDecode(typ, payload); err != nil {
			t.Fatal(err)
		}
	})
}

// layoutBytes parses a FMT layout string — the format items before
// its trailing comma-separated column names — and returns the payload
// bytes it describes. Grammar: B=1 H=2 I=4 Q=q=d=8, zN (N required),
// xN (N defaults to 1), n*item and n*(items) repeat.
func layoutBytes(layout string) (int, error) {
	sp := strings.LastIndexByte(layout, ' ')
	if sp < 0 {
		return 0, fmt.Errorf("no column names in %q", layout)
	}
	p := layoutParser{s: layout[:sp]}
	n, err := p.items()
	if err == nil && p.i < len(p.s) {
		err = fmt.Errorf("unexpected %q at %d", p.s[p.i], p.i)
	}
	return n, err
}

type layoutParser struct {
	s string
	i int
}

func (p *layoutParser) items() (int, error) {
	total := 0
	for {
		for p.i < len(p.s) && p.s[p.i] == ' ' {
			p.i++
		}
		if p.i == len(p.s) || p.s[p.i] == ')' {
			return total, nil
		}
		n, err := p.item()
		if err != nil {
			return 0, err
		}
		total += n
	}
}

func (p *layoutParser) num() (int, bool) {
	j := p.i
	for p.i < len(p.s) && p.s[p.i] >= '0' && p.s[p.i] <= '9' {
		p.i++
	}
	n, err := strconv.Atoi(p.s[j:p.i])
	return n, err == nil
}

func (p *layoutParser) item() (int, error) {
	if reps, ok := p.num(); ok {
		if p.i == len(p.s) || p.s[p.i] != '*' {
			return 0, fmt.Errorf("count %d without '*'", reps)
		}
		p.i++
		if p.i < len(p.s) && p.s[p.i] == '(' {
			p.i++
			n, err := p.items()
			if err != nil {
				return 0, err
			}
			if p.i == len(p.s) {
				return 0, fmt.Errorf("unclosed group")
			}
			p.i++
			return reps * n, nil
		}
		n, err := p.item()
		return reps * n, err
	}
	ch := p.s[p.i]
	p.i++
	switch ch {
	case 'B':
		return 1, nil
	case 'H':
		return 2, nil
	case 'I':
		return 4, nil
	case 'Q', 'q', 'd':
		return 8, nil
	case 'z':
		if n, ok := p.num(); ok {
			return n, nil
		}
		return 0, fmt.Errorf("z without a width")
	case 'x':
		if n, ok := p.num(); ok {
			return n, nil
		}
		return 1, nil
	}
	return 0, fmt.Errorf("unknown layout char %q", ch)
}

func TestLayoutParser(t *testing.T) {
	for layout, want := range map[string]int{
		"BxH z16 z112 a,b": 132,
		"3*z24 4*d a":      104,
		"40*(I d) a":       480,
		"2*(B 2*(H x3)) a": 22,
	} {
		if got, err := layoutBytes(layout); err != nil || got != want {
			t.Errorf("layoutBytes(%q) = %d, %v; want %d", layout, got, err, want)
		}
	}
	for _, bad := range []string{"nonames", "z a", "3 a", "4*(d a", "K a"} {
		if _, err := layoutBytes(bad); err == nil {
			t.Errorf("layoutBytes(%q) accepted", bad)
		}
	}
}

// TestLayoutStrings makes the FMT layout column the checked statement
// of each record type: its byte count must equal the descriptor's
// Size, the bytes the type's field function covers encoding (empty
// and full groups alike), and the bytes it consumes decoding.
func TestLayoutStrings(t *testing.T) {
	full := strings.Repeat("w", 100)
	samples := map[byte][]Record{
		RecFormat:  {&FormatRecord{}, &FormatRecord{Name: full, Layout: full + full}},
		RecSpan:    {&SpanRecord{}, &SpanRecord{Span: causal.Span{Kind: causal.Kind(full), Machine: full}}},
		RecEvent:   {&EventRecord{}, &EventRecord{Event: telemetry.Event{Detail: full}}},
		RecAlert:   {&AltRecord{}, &AltRecord{Event: telemetry.Event{Detail: full}}},
		RecProbe:   {&ProbeRecord{}, &ProbeRecord{Index: 9, Machine: full}},
		RecTempRow: {&TempChunk{}, &TempChunk{Temps: make([]float64, tempChunk)}},
		RecUtil:    {&UtilRecord{}, &UtilRecord{Entries: make([]wire.UtilEntry, utilMaxEntries+1)}},
		RecFiddle: {&FiddleRecord{}, &FiddleRecord{Op: wire.FiddleOp{
			Strings: make([]string, fiddleMaxStrings+1), Floats: make([]float64, fiddleMaxFloats+1)}}},
		RecBoundary: {&BoundaryRecord{}, &BoundaryRecord{Index: make([]int32, boundaryChunk), Temps: make([]float64, boundaryChunk)}},
		RecMeta:     {&MetaRecord{}, &MetaRecord{Step: time.Second, Machines: 4}},
	}
	if len(formats) != len(decoders) || len(samples) != len(formats) {
		t.Fatalf("%d formats, %d decoders, %d sampled types", len(formats), len(decoders), len(samples))
	}
	for i, f := range formats {
		if int(f.Of) != i {
			t.Fatalf("formats[%d] is type 0x%02x: the table must be indexed by type code", i, f.Of)
		}
		if f.Size > cellBuf {
			t.Errorf("%s: size %d exceeds the %d-byte ring cell", f.Name, f.Size, cellBuf)
		}
		n, err := layoutBytes(f.Layout)
		if err != nil {
			t.Fatalf("%s layout %q: %v", f.Name, f.Layout, err)
		}
		if n != int(f.Size) {
			t.Errorf("%s: layout %q describes %d bytes, descriptor says %d", f.Name, f.Layout, n, f.Size)
		}
		for _, rec := range samples[f.Of] {
			var b [cellBuf]byte
			if n, _ := encodeRecord(b[:], rec); n != int(f.Size) {
				t.Errorf("%s: encoding %+v covers %d bytes, want %d", f.Name, rec, n, f.Size)
			}
			c := cursor{b: b[:f.Size], dec: true}
			decoders[f.Of](&c)
			if c.off != int(f.Size) || c.bad {
				t.Errorf("%s: decoding consumed %d bytes (bad %v), want %d", f.Name, c.off, c.bad, f.Size)
			}
		}
	}
	var hdr [headerSize]byte
	magic := Magic
	c := cursor{b: hdr[:]}
	headerFields(&c, &magic, &Header{})
	if c.off != headerSize {
		t.Errorf("header covers %d bytes, want %d", c.off, headerSize)
	}
}

// TestProbeIndexLimit: a probe index is a u16, so a room wider than
// 65 536 columns must be cut there, visibly — not wrap, overwrite
// probe identities and split rows.
func TestProbeIndexLimit(t *testing.T) {
	const width = maxProbes + 4464
	probes := make([]telemetry.TempProbe, width)
	vals := make([]float64, width)
	for i := range probes {
		probes[i] = telemetry.TempProbe{Machine: "machine" + strconv.Itoa(i), Node: "cpu"}
		vals[i] = float64(i)
	}
	path := tempPath(t)
	// A ring of exactly maxProbes cells holds the whole probe table
	// undrained; once CatchUp has it under half full, the row's chunks
	// fit too.
	w, err := newWriter(path, "wide", clock.NewVirtual(), writerConfig{ringSize: maxProbes})
	if err != nil {
		t.Fatal(err)
	}
	w.SetProbes(probes)
	go w.drain()
	w.CatchUp()
	w.RecordTempRow(time.Second, vals)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Drops() != 0 || w.Truncated() != 2 {
		t.Errorf("drops %d, truncated %d; want 0 and 2 (one per over-wide call)", w.Drops(), w.Truncated())
	}
	log, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Probes) != maxProbes {
		t.Fatalf("%d probes read back, want %d", len(log.Probes), maxProbes)
	}
	for i, p := range log.Probes {
		if p != probes[i] {
			t.Fatalf("probe %d reads back as %+v, want %+v", i, p, probes[i])
		}
	}
	if len(log.TempRows) != 1 || len(log.TempRows[0].Temps) != maxProbes {
		t.Fatalf("%d rows read back, want one of %d temps", len(log.TempRows), maxProbes)
	}
	for i, v := range log.TempRows[0].Temps {
		if v != vals[i] {
			t.Fatalf("temp %d = %v, want %v", i, v, vals[i])
		}
	}
}
