package recordlog

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/telemetry"
	"github.com/darklab/mercury/internal/units"
	"github.com/darklab/mercury/internal/wire"
)

func tempPath(t testing.TB) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "test.mrl")
}

func TestHeaderRoundTrip(t *testing.T) {
	path := tempPath(t)
	clk := clock.NewVirtual()
	clk.Advance(0) // epoch at virtual t=0
	w, err := Create(path, "solver-r3", clk)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	h := log.Header
	if h.Version != Version {
		t.Errorf("version = %d, want %d", h.Version, Version)
	}
	if h.Node != "solver-r3" {
		t.Errorf("node = %q, want solver-r3", h.Node)
	}
	if !h.Virtual() {
		t.Error("virtual-clock flag not set for a clock.Virtual writer")
	}
	if got := h.Epoch.UnixNano(); got != 0 {
		t.Errorf("epoch = %d ns, want 0 (virtual t=0)", got)
	}
	if len(log.Formats) != len(formats) {
		t.Errorf("decoded %d format descriptors, want %d", len(log.Formats), len(formats))
	}
	for i, f := range log.Formats {
		if f != formats[i] {
			t.Errorf("format %d = %+v, want %+v", i, f, formats[i])
		}
	}
}

// randomized record generators, deterministic per seed.

func randString(rng *rand.Rand, maxLen int) string {
	n := rng.Intn(maxLen + 1)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

func randEvent(rng *rand.Rand) telemetry.Event {
	return telemetry.Event{
		Seq:     rng.Uint64(),
		At:      time.Duration(rng.Int63()),
		Type:    telemetry.EventType(randString(rng, strType-1)),
		Machine: randString(rng, strMachine-1),
		Node:    randString(rng, strNode-1),
		Value:   rng.NormFloat64(),
		Detail:  randString(rng, strDetail-1),
	}
}

func randSpan(rng *rand.Rand) causal.Span {
	begin := time.Duration(rng.Int63n(1 << 40))
	return causal.Span{
		Seq:     rng.Uint64(),
		Trace:   rng.Uint64(),
		ID:      rng.Uint64(),
		Parent:  rng.Uint64(),
		Kind:    causal.Kind(randString(rng, strKind-1)),
		Begin:   begin,
		End:     begin + time.Duration(rng.Int63n(1<<30)),
		Machine: randString(rng, strMachine-1),
		Node:    randString(rng, strNode-1),
		Value:   rng.NormFloat64(),
		Step:    rng.Uint64(),
	}
}

// TestRoundTripRandom is the round-trip property test: N random
// records of every type written through the full ring + drain + file
// path read back identical, in order.
func TestRoundTripRandom(t *testing.T) {
	const N = 500
	rng := rand.New(rand.NewSource(11))
	path := tempPath(t)
	clk := clock.NewVirtual()
	w, err := Create(path, "prop", clk, WithRingSize(4096))
	if err != nil {
		t.Fatal(err)
	}

	var wantEvents []telemetry.Event
	var wantSpans []causal.Span
	var wantUtils []UtilRecord
	var wantFiddles []FiddleRecord
	var wantRows []TempRow
	var wantBounds []BoundaryRecord

	probes := []telemetry.TempProbe{{Machine: "m1", Node: "cpu"}, {Machine: "m2", Node: "inlet"}}
	w.SetProbes(probes)
	w.RecordMeta(time.Second, 7)

	for i := 0; i < N; i++ {
		clk.Advance(time.Duration(rng.Intn(3)) * time.Millisecond)
		at := clk.Elapsed()
		switch rng.Intn(6) {
		case 0:
			e := randEvent(rng)
			wantEvents = append(wantEvents, e)
			w.RecordEvent(e)
		case 1:
			s := randSpan(rng)
			wantSpans = append(wantSpans, s)
			w.RecordSpan(s)
		case 2:
			entries := make([]wire.UtilEntry, 1+rng.Intn(utilMaxEntries))
			for j := range entries {
				entries[j] = wire.UtilEntry{
					Source: model.UtilSource(randString(rng, strSource-1)),
					Util:   units.Fraction(rng.Float64()),
				}
			}
			u := UtilRecord{
				Tick:    rng.Uint64(),
				At:      at,
				Seq:     rng.Uint32(),
				Machine: randString(rng, strMachine-1),
				Entries: entries,
			}
			wantUtils = append(wantUtils, u)
			w.RecordUtil(u.Tick, u.Machine, u.Seq, entries)
		case 3:
			op := wire.FiddleOp{Op: byte(rng.Intn(256))}
			for j := rng.Intn(fiddleMaxStrings + 1); j > 0; j-- {
				op.Strings = append(op.Strings, randString(rng, strMachine-1))
			}
			for j := rng.Intn(fiddleMaxFloats + 1); j > 0; j-- {
				op.Floats = append(op.Floats, rng.NormFloat64())
			}
			wantFiddles = append(wantFiddles, FiddleRecord{Tick: uint64(i), At: at, Op: op})
			w.RecordFiddle(uint64(i), &op)
		case 4:
			// Rows longer than one chunk exercise reassembly.
			vals := make([]float64, 1+rng.Intn(3*tempChunk))
			for j := range vals {
				vals[j] = rng.NormFloat64()
			}
			wantRows = append(wantRows, TempRow{At: at, Temps: vals})
			w.RecordTempRow(at, vals)
		case 5:
			n := 1 + rng.Intn(2*boundaryChunk)
			idx := make([]int32, n)
			temps := make([]float64, n)
			for j := range idx {
				idx[j] = rng.Int31()
				temps[j] = rng.NormFloat64()
			}
			wantBounds = append(wantBounds, BoundaryRecord{Tick: uint64(i), Region: 3, Index: idx, Temps: temps})
			w.RecordBoundary(uint64(i), 3, idx, temps)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Drops() != 0 {
		t.Fatalf("dropped %d records with an oversized ring", w.Drops())
	}
	if w.Truncated() != 0 {
		t.Fatalf("truncated %d fields; generators should fit every slot", w.Truncated())
	}

	log, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if log.Truncated {
		t.Error("log reports a truncated tail after a clean Close")
	}
	if log.Step != time.Second || log.Machines != 7 {
		t.Errorf("meta = (%v, %d), want (1s, 7)", log.Step, log.Machines)
	}
	if len(log.Probes) != len(probes) {
		t.Fatalf("probes = %d, want %d", len(log.Probes), len(probes))
	}
	for i := range probes {
		if log.Probes[i] != probes[i] {
			t.Errorf("probe %d = %+v, want %+v", i, log.Probes[i], probes[i])
		}
	}
	if len(log.Events) != len(wantEvents) {
		t.Fatalf("events = %d, want %d", len(log.Events), len(wantEvents))
	}
	for i := range wantEvents {
		if log.Events[i] != wantEvents[i] {
			t.Fatalf("event %d = %+v, want %+v", i, log.Events[i], wantEvents[i])
		}
	}
	if len(log.Spans) != len(wantSpans) {
		t.Fatalf("spans = %d, want %d", len(log.Spans), len(wantSpans))
	}
	for i := range wantSpans {
		if log.Spans[i] != wantSpans[i] {
			t.Fatalf("span %d = %+v, want %+v", i, log.Spans[i], wantSpans[i])
		}
	}
	var gotUtils []UtilRecord
	var gotFiddles []FiddleRecord
	for _, in := range log.Inputs {
		switch {
		case in.Util != nil:
			gotUtils = append(gotUtils, *in.Util)
		case in.Fiddle != nil:
			gotFiddles = append(gotFiddles, *in.Fiddle)
		}
	}
	if len(gotUtils) != len(wantUtils) {
		t.Fatalf("utils = %d, want %d", len(gotUtils), len(wantUtils))
	}
	for i := range wantUtils {
		got, want := gotUtils[i], wantUtils[i]
		if got.Tick != want.Tick || got.At != want.At || got.Seq != want.Seq || got.Machine != want.Machine {
			t.Fatalf("util %d = %+v, want %+v", i, got, want)
		}
		if len(got.Entries) != len(want.Entries) {
			t.Fatalf("util %d entries = %d, want %d", i, len(got.Entries), len(want.Entries))
		}
		for j := range want.Entries {
			if got.Entries[j] != want.Entries[j] {
				t.Fatalf("util %d entry %d = %+v, want %+v", i, j, got.Entries[j], want.Entries[j])
			}
		}
	}
	if len(gotFiddles) != len(wantFiddles) {
		t.Fatalf("fiddles = %d, want %d", len(gotFiddles), len(wantFiddles))
	}
	for i := range wantFiddles {
		got, want := gotFiddles[i], wantFiddles[i]
		if got.Tick != want.Tick || got.At != want.At || got.Op.Op != want.Op.Op ||
			len(got.Op.Strings) != len(want.Op.Strings) || len(got.Op.Floats) != len(want.Op.Floats) {
			t.Fatalf("fiddle %d = %+v, want %+v", i, got, want)
		}
		for j := range want.Op.Strings {
			if got.Op.Strings[j] != want.Op.Strings[j] {
				t.Fatalf("fiddle %d string %d = %q, want %q", i, j, got.Op.Strings[j], want.Op.Strings[j])
			}
		}
		for j := range want.Op.Floats {
			if math.Float64bits(got.Op.Floats[j]) != math.Float64bits(want.Op.Floats[j]) {
				t.Fatalf("fiddle %d float %d = %v, want %v", i, j, got.Op.Floats[j], want.Op.Floats[j])
			}
		}
	}
	if len(log.TempRows) != len(wantRows) {
		t.Fatalf("temp rows = %d, want %d", len(log.TempRows), len(wantRows))
	}
	for i := range wantRows {
		got, want := log.TempRows[i], wantRows[i]
		if got.At != want.At || len(got.Temps) != len(want.Temps) {
			t.Fatalf("row %d: at=%v len=%d, want at=%v len=%d", i, got.At, len(got.Temps), want.At, len(want.Temps))
		}
		for j := range want.Temps {
			if math.Float64bits(got.Temps[j]) != math.Float64bits(want.Temps[j]) {
				t.Fatalf("row %d temp %d = %v, want %v", i, j, got.Temps[j], want.Temps[j])
			}
		}
	}
	// Boundary chunks are compared after reassembling per (tick, first
	// chunk order) — ReadLog keeps them as raw chunks.
	var merged []BoundaryRecord
	for _, b := range log.Boundary {
		if n := len(merged); n > 0 && merged[n-1].Tick == b.Tick && b.Region == merged[n-1].Region && len(merged[n-1].Index)%boundaryChunk == 0 && len(b.Index) > 0 {
			merged[n-1].Index = append(merged[n-1].Index, b.Index...)
			merged[n-1].Temps = append(merged[n-1].Temps, b.Temps...)
			continue
		}
		merged = append(merged, b)
	}
	if len(merged) != len(wantBounds) {
		t.Fatalf("boundary records = %d, want %d", len(merged), len(wantBounds))
	}
	for i := range wantBounds {
		got, want := merged[i], wantBounds[i]
		if got.Tick != want.Tick || got.Region != want.Region || len(got.Index) != len(want.Index) {
			t.Fatalf("boundary %d = %+v, want %+v", i, got, want)
		}
		for j := range want.Index {
			if got.Index[j] != want.Index[j] || math.Float64bits(got.Temps[j]) != math.Float64bits(want.Temps[j]) {
				t.Fatalf("boundary %d node %d = (%d, %v), want (%d, %v)", i, j, got.Index[j], got.Temps[j], want.Index[j], want.Temps[j])
			}
		}
	}
}

// writeSampleFile produces a small valid log and returns its bytes.
func writeSampleFile(t testing.TB, events int) []byte {
	t.Helper()
	path := tempPath(t)
	clk := clock.NewVirtual()
	w, err := Create(path, "sample", clk)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < events; i++ {
		w.RecordEvent(randEvent(rng))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestReaderTruncatedTail(t *testing.T) {
	data := writeSampleFile(t, 10)
	path := tempPath(t)
	// Cut the file mid-record (anywhere past the header that is not a
	// frame boundary); ReadLog must tolerate it and flag Truncated.
	for _, cut := range []int{len(data) - 1, len(data) - 5, len(data) - int(formats[RecEvent].Size)} {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		log, err := ReadLog(path)
		if err != nil {
			t.Fatalf("cut=%d: ReadLog must tolerate a truncated tail, got %v", cut, err)
		}
		if !log.Truncated {
			t.Errorf("cut=%d: Truncated flag not set", cut)
		}
		if len(log.Events) != 9 {
			t.Errorf("cut=%d: decoded %d events, want 9 intact ones", cut, len(log.Events))
		}
	}

	// The raw Reader reports the truncation as ErrTruncated.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, err := r.Next()
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("want ErrTruncated at tail, got %v", err)
		}
		var te *TruncatedError
		if !errors.As(err, &te) || te.Offset <= 0 {
			t.Fatalf("want *TruncatedError with offset, got %#v", err)
		}
		break
	}
}

func TestReaderCorruptCRC(t *testing.T) {
	data := writeSampleFile(t, 10)
	// Flip one payload byte of the 5th event record: the frames after
	// the header are the descriptor table, then events.
	fmtFrame := frameOverhead + int(formats[RecFormat].Size)
	evtFrame := frameOverhead + int(formats[RecEvent].Size)
	off := headerSize + len(formats)*fmtFrame + 4*evtFrame + frameOverhead + 10
	data[off] ^= 0xff
	path := tempPath(t)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadLog(path)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError, got %v", err)
	}
	wantOff := int64(headerSize + len(formats)*fmtFrame + 4*evtFrame)
	if ce.Offset != wantOff {
		t.Errorf("corrupt offset = %d, want %d", ce.Offset, wantOff)
	}

	// Truncated tails must NOT mask corruption: a clean prefix still
	// decodes 4 events before the error.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		rec, err := r.Next()
		if err != nil {
			break
		}
		if _, ok := rec.(*EventRecord); ok {
			n++
		}
	}
	if n != 4 {
		t.Errorf("decoded %d events before the corruption, want 4", n)
	}
}

func TestReaderSkipsUnknownTypes(t *testing.T) {
	data := writeSampleFile(t, 2)
	// Append a valid frame of an unknown future type, then a known
	// event frame, by hand.
	unknown := frame(0x7f, []byte("future record payload"))
	rng := rand.New(rand.NewSource(3))
	e := randEvent(rng)
	data = append(data, unknown...)
	data = append(data, frame(RecEvent, payloadOf(&EventRecord{Event: e}))...)
	path := tempPath(t)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	log, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if log.Skipped != 1 {
		t.Errorf("skipped = %d, want 1", log.Skipped)
	}
	if len(log.Events) != 3 {
		t.Errorf("events = %d, want 3 (unknown frame must not desync framing)", len(log.Events))
	}
	if log.Events[2] != e {
		t.Errorf("event after unknown frame = %+v, want %+v", log.Events[2], e)
	}
}

func TestReaderBadMagicAndVersion(t *testing.T) {
	data := writeSampleFile(t, 1)
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := NewReader(bytesReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	bad = append([]byte(nil), data...)
	bad[8] = Version + 1
	if _, err := NewReader(bytesReader(bad)); err == nil {
		t.Error("future version accepted")
	}
	if _, err := NewReader(bytesReader(data[:20])); err == nil {
		t.Error("short header accepted")
	}
}

// TestWriterDrops fills an unstarted writer's ring past capacity and
// checks the overflow is counted, not blocked on, and that the
// drained file carries exactly the accepted records.
func TestWriterDrops(t *testing.T) {
	path := tempPath(t)
	w, err := newWriter(path, "drops", clock.NewVirtual(), writerConfig{ringSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 21; i++ {
		w.RecordEvent(randEvent(rng))
	}
	if got := w.Drops(); got != 5 {
		t.Fatalf("drops = %d, want 5", got)
	}
	go w.drain()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Events) != 16 {
		t.Errorf("events = %d, want the 16 accepted ones", len(log.Events))
	}
}

// TestWriterCatchUp: a producer that owes nothing to the wall clock
// calls CatchUp between bursts and loses nothing however small the
// ring; one that never calls it keeps the live contract — it drops,
// counts, and is never held up.
func TestWriterCatchUp(t *testing.T) {
	const records, burst = 10000, 4 // a burst on top of half of 8 cells still fits
	rng := rand.New(rand.NewSource(7))
	path := tempPath(t)
	w, err := Create(path, "catchup", clock.NewVirtual(), WithRingSize(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if i%burst == 0 {
			w.CatchUp()
		}
		w.RecordEvent(randEvent(rng))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w.CatchUp() // after Close there is no drain to wait for: must return
	log, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if w.Drops() != 0 || len(log.Events) != records {
		t.Errorf("with CatchUp: %d drops, %d events on disk, want 0 and %d", w.Drops(), len(log.Events), records)
	}

	// No CatchUp and no drain at all: were a Record call ever to wait for
	// room, this would hang.
	w, err = newWriter(tempPath(t), "nocatchup", clock.NewVirtual(), writerConfig{ringSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < records; i++ {
		w.RecordEvent(randEvent(rng))
	}
	if got := w.Drops(); got != records-8 {
		t.Errorf("without CatchUp: %d drops, want %d", got, records-8)
	}
	go w.drain()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriterConcurrent hammers the ring from many goroutines and
// verifies the file stays frame-clean: every record decodes, nothing
// interleaves.
func TestWriterConcurrent(t *testing.T) {
	path := tempPath(t)
	w, err := Create(path, "conc", clock.NewVirtual(), WithRingSize(1024))
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < per; i++ {
				switch i % 3 {
				case 0:
					w.RecordEvent(randEvent(rng))
				case 1:
					w.RecordSpan(randSpan(rng))
				case 2:
					w.RecordFiddle(uint64(i), &wire.FiddleOp{Op: wire.OpPinInlet, Strings: []string{"m"}, Floats: []float64{40}})
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	got := uint64(len(log.Events) + len(log.Spans) + len(log.Inputs))
	want := uint64(workers*per) - w.Drops()
	if got != want {
		t.Errorf("decoded %d records, want %d (%d drops of %d)", got, want, w.Drops(), workers*per)
	}
	if log.Truncated {
		t.Error("concurrent writes produced a truncated file")
	}
}

// TestRecordHotPathAllocs pins every producer-side call at zero
// allocations: claim + encode + publish must not touch the heap. The drain
// goroutine is deliberately not running so only producer-side
// allocations are measured.
func TestRecordHotPathAllocs(t *testing.T) {
	path := tempPath(t)
	w, err := newWriter(path, "allocs", clock.NewVirtual(), writerConfig{ringSize: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	e := telemetry.Event{Seq: 1, At: time.Second, Type: telemetry.EvFiddle, Machine: "machine1", Node: "cpu", Value: 55, Detail: "pin-inlet(machine1)"}
	s := causal.Span{Seq: 1, Trace: 2, ID: 3, Kind: causal.KindStep, Begin: time.Second, End: 2 * time.Second, Machine: "machine1"}
	entries := []wire.UtilEntry{{Source: model.UtilCPU, Util: 0.5}, {Source: model.UtilDisk, Util: 0.25}}
	op := wire.FiddleOp{Op: wire.OpPinInlet, Strings: []string{"machine1"}, Floats: []float64{40}}
	temps := make([]float64, 123)
	idx := make([]int32, 50)
	probes := []telemetry.TempProbe{{Machine: "machine1", Node: "cpu"}, {Machine: "machine2", Node: "inlet"}}
	cases := map[string]func(){
		"RecordEvent":    func() { w.RecordEvent(e) },
		"RecordAlert":    func() { w.RecordAlert(e) },
		"RecordSpan":     func() { w.RecordSpan(s) },
		"RecordUtil":     func() { w.RecordUtil(9, "machine1", 4, entries) },
		"RecordFiddle":   func() { w.RecordFiddle(9, &op) },
		"RecordTempRow":  func() { w.RecordTempRow(time.Second, temps) },
		"RecordBoundary": func() { w.RecordBoundary(9, 1, idx, temps[:len(idx)]) },
		"RecordMeta":     func() { w.RecordMeta(time.Second, 4) },
		"SetProbes":      func() { w.SetProbes(probes) },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f times per op, want 0", name, allocs)
		}
	}
	go w.drain()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkRecordWrite is the CI tripwire for the recording hot path:
// bench_diff.sh fails the PR gate if its allocs/op leaves zero. It
// runs the full stack — ring claim, fixed-width encode, async drain
// to a real file.
func BenchmarkRecordWrite(b *testing.B) {
	path := tempPath(b)
	w, err := Create(path, "bench", clock.NewVirtual(), WithRingSize(1<<14))
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	e := telemetry.Event{Seq: 1, At: time.Second, Type: telemetry.EvFiddle, Machine: "machine1", Node: "cpu", Value: 55, Detail: "pin-inlet(machine1)"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.RecordEvent(e)
	}
	b.StopTimer()
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(w.Drops())/float64(b.N), "drops/op")
}

// frame builds one wire frame by hand (test helper mirroring
// Writer.writeFrame).
func frame(typ byte, payload []byte) []byte {
	out := make([]byte, 0, frameOverhead+len(payload))
	out = append(out, typ, byte(len(payload)>>8), byte(len(payload)))
	out = append(out, payload...)
	crc := crc32.Checksum(out, crcTable)
	return append(out, byte(crc>>24), byte(crc>>16), byte(crc>>8), byte(crc))
}

func bytesReader(b []byte) io.Reader { return bytes.NewReader(b) }
