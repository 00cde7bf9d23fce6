package wire

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

// Differential tests: the append/into report core against the frozen
// reference codecs of reference_test.go — identical bytes, identical
// decoded values, identical typed errors — over generated reports and
// over mangled datagrams.

// script turns a byte string into generator choices, so the seeded
// test and the fuzz target share one generator; it yields zeros once
// exhausted.
type script struct {
	data []byte
	pos  int
}

func (s *script) next() int {
	if s.pos >= len(s.data) {
		return 0
	}
	b := s.data[s.pos]
	s.pos++
	return int(b)
}

var scriptSources = []model.UtilSource{
	model.UtilCPU, model.UtilDisk, model.UtilNet, "cpu0", "fan", "",
	model.UtilSource(strings.Repeat("s", 255)), model.UtilSource(strings.Repeat("s", 256)),
}

func (s *script) name() string {
	switch s.next() % 8 {
	case 0:
		return ""
	case 1:
		return strings.Repeat("m", 255)
	case 2:
		return strings.Repeat("m", 256)
	}
	b := make([]byte, 1+s.next()%24)
	for i := range b {
		b[i] = 'a' + byte(s.next()%26)
	}
	return string(b)
}

func (s *script) entries() []UtilEntry {
	var n int
	switch s.next() % 8 {
	case 0:
		n = 0
	case 1:
		n = 8
	case 2:
		n = 9
	default:
		n = s.next() % 5
	}
	var out []UtilEntry
	for i := 0; i < n; i++ {
		// Mostly the short names, so duplicates and unsorted runs are
		// common and the long ones rare.
		src := scriptSources[s.next()%5]
		if k := s.next(); k%16 == 0 {
			src = scriptSources[k/16%len(scriptSources)]
		}
		var u float64
		switch s.next() % 8 {
		case 0:
			u = math.NaN()
		case 1:
			u = -0.5
		case 2:
			u = 1.5
		case 3:
			u = math.Inf(1)
		case 4:
			u = 0
		default:
			u = float64(s.next()) / 255
		}
		out = append(out, UtilEntry{Source: src, Util: units.Fraction(u)})
	}
	return out
}

func (s *script) seq() uint32 {
	return uint32(s.next())<<24 | uint32(s.next())<<16 | uint32(s.next())<<8 | uint32(s.next())
}

func (s *script) trace() TraceContext {
	switch s.next() % 4 {
	case 0:
		return TraceContext{Trace: uint64(s.seq()) + 1, Span: uint64(s.seq())}
	case 1:
		// Not Zero, so it selects version 2, yet carries trace ID 0,
		// which every decoder must refuse.
		return TraceContext{Span: 7}
	}
	return TraceContext{}
}

func (s *script) update() *UtilUpdate {
	return &UtilUpdate{Machine: s.name(), Seq: s.seq(), Entries: s.entries(), Trace: s.trace()}
}

func (s *script) batch() *UtilBatch {
	var n int
	switch s.next() % 8 {
	case 0:
		n = 0
	case 1:
		n = MaxBatchMachines
	case 2:
		n = MaxBatchMachines + 1
	default:
		n = 1 + s.next()%6
	}
	b := &UtilBatch{Trace: s.trace()}
	for i := 0; i < n; i++ {
		b.Reports = append(b.Reports, UtilReport{Machine: s.name(), Seq: s.seq(), Entries: s.entries()})
	}
	return b
}

var typedErrs = []error{
	ErrShort, ErrBadSize, ErrBadVersion, ErrBadType, ErrStringSize, ErrTooManyUtil,
	ErrBadTrace, ErrEmptyBatch, ErrTooManyBatch, ErrTrailingBytes,
}

// sameErr holds a typed error to identity and a formatted one to its
// text.
func sameErr(got, want error) bool {
	for _, e := range typedErrs {
		if want == e {
			return got == want
		}
	}
	if got == nil || want == nil {
		return got == want
	}
	return got.Error() == want.Error()
}

func sameEntries(got, want []UtilEntry) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Source != want[i].Source || math.Float64bits(float64(got[i].Util)) != math.Float64bits(float64(want[i].Util)) {
			return false
		}
	}
	return true
}

// differ holds the reused buffers and messages the append/into forms
// are exercised with, so storage left over from one case is what the
// next case decodes into.
type differ struct {
	t     testing.TB
	dgram []byte
	upd   UtilUpdate
	batch UtilBatch
}

var dgramPrefix = []byte("prefix")

func (d *differ) encodeUpdate(u *UtilUpdate) []byte {
	want, wantErr := refMarshalUtilUpdate(u)
	got, err := MarshalUtilUpdate(u)
	if !sameErr(err, wantErr) || !bytes.Equal(got, want) {
		d.t.Fatalf("MarshalUtilUpdate(%+v):\n got %x, %v\nwant %x, %v", u, got, err, want, wantErr)
	}
	d.dgram = append(d.dgram[:0], dgramPrefix...)
	d.dgram, err = AppendUtilUpdate(d.dgram, u)
	if !sameErr(err, wantErr) || !bytes.Equal(d.dgram[len(dgramPrefix):], want) || !bytes.HasPrefix(d.dgram, dgramPrefix) {
		d.t.Fatalf("AppendUtilUpdate(%+v):\n got %x, %v\nwant %x, %v", u, d.dgram, err, want, wantErr)
	}
	return want
}

func (d *differ) encodeBatch(b *UtilBatch) []byte {
	want, wantErr := refMarshalUtilBatch(b)
	got, err := MarshalUtilBatch(b)
	if !sameErr(err, wantErr) || !bytes.Equal(got, want) {
		d.t.Fatalf("MarshalUtilBatch(%+v):\n got %x, %v\nwant %x, %v", b, got, err, want, wantErr)
	}
	d.dgram = append(d.dgram[:0], dgramPrefix...)
	d.dgram, err = AppendUtilBatch(d.dgram, b)
	if !sameErr(err, wantErr) || !bytes.Equal(d.dgram[len(dgramPrefix):], want) || !bytes.HasPrefix(d.dgram, dgramPrefix) {
		d.t.Fatalf("AppendUtilBatch(%+v):\n got %x, %v\nwant %x, %v", b, d.dgram, err, want, wantErr)
	}
	return want
}

// decode runs buf through both decoders of both messages.
func (d *differ) decode(buf []byte) {
	wantU, wantErr := refUnmarshalUtilUpdate(buf)
	gotU, err := UnmarshalUtilUpdate(buf)
	if !sameErr(err, wantErr) {
		d.t.Fatalf("UnmarshalUtilUpdate(%x): %v, want %v", buf, err, wantErr)
	}
	intoErr := UnmarshalUtilUpdateInto(&d.upd, buf, nil)
	if !sameErr(intoErr, wantErr) {
		d.t.Fatalf("UnmarshalUtilUpdateInto(%x): %v, want %v", buf, intoErr, wantErr)
	}
	if wantErr == nil {
		for _, got := range []*UtilUpdate{gotU, &d.upd} {
			if got.Machine != wantU.Machine || got.Seq != wantU.Seq || got.Trace != wantU.Trace || !sameEntries(got.Entries, wantU.Entries) {
				d.t.Fatalf("update decoded from %x:\n got %+v\nwant %+v", buf, got, wantU)
			}
		}
	}

	wantB, wantErr := refUnmarshalUtilBatch(buf)
	gotB, err := UnmarshalUtilBatch(buf)
	if !sameErr(err, wantErr) {
		d.t.Fatalf("UnmarshalUtilBatch(%x): %v, want %v", buf, err, wantErr)
	}
	intoErr = UnmarshalUtilBatchInto(&d.batch, buf, nil)
	if !sameErr(intoErr, wantErr) {
		d.t.Fatalf("UnmarshalUtilBatchInto(%x): %v, want %v", buf, intoErr, wantErr)
	}
	if wantErr == nil {
		for _, got := range []*UtilBatch{gotB, &d.batch} {
			ok := got.Trace == wantB.Trace && len(got.Reports) == len(wantB.Reports)
			for i := 0; ok && i < len(got.Reports); i++ {
				g, w := &got.Reports[i], &wantB.Reports[i]
				ok = g.Machine == w.Machine && g.Seq == w.Seq && sameEntries(g.Entries, w.Entries)
			}
			if !ok {
				d.t.Fatalf("batch decoded from %x:\n got %+v\nwant %+v", buf, got, wantB)
			}
		}
	}
}

// mangled decodes buf, a truncation, a slack-padded copy and a copy
// with one byte changed, all chosen by the script.
func (d *differ) mangled(buf []byte, s *script) {
	d.decode(buf)
	if len(buf) == 0 {
		return
	}
	cut := (s.next()<<8 | s.next()) % len(buf)
	d.decode(buf[:cut])
	padded := append(append([]byte(nil), buf...), make([]byte, 1+s.next()%3)...)
	d.decode(padded)
	flipped := append([]byte(nil), buf...)
	flipped[(s.next()<<8|s.next())%len(buf)] ^= byte(1 + s.next()%255)
	d.decode(flipped)
}

// run drives one script through every comparison.
func (d *differ) run(data []byte) {
	s := &script{data: data}
	d.mangled(d.encodeUpdate(s.update()), s)
	d.mangled(d.encodeBatch(s.batch()), s)
	// And the raw script as a datagram of either kind.
	d.decode(data)
	if len(data) >= 2 {
		d.decode(append([]byte{Version, MsgUtilBatch}, data[2:]...))
		fixed := make([]byte, UtilUpdateSize)
		copy(fixed, data)
		fixed[0], fixed[1] = VersionTrace, MsgUtilUpdate
		d.decode(fixed)
	}
}

func TestUtilReportDifferential(t *testing.T) {
	d := &differ{t: t}
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 1024)
		for i := 0; i < 20000; i++ {
			rng.Read(data)
			d.run(data[:rng.Intn(len(data))])
		}
	}
	// The sizes the generator reaches only by luck, pinned.
	for _, n := range []int{0, 8, 9} {
		for _, name := range []int{255, 256} {
			var entries []UtilEntry
			for i := 0; i < n; i++ {
				entries = append(entries, UtilEntry{Source: scriptSources[(n-i)%5], Util: units.Fraction(math.NaN())})
			}
			for _, tc := range []TraceContext{{}, {Trace: 1, Span: 2}} {
				u := &UtilUpdate{Machine: strings.Repeat("m", name), Seq: 9, Entries: entries, Trace: tc}
				d.decode(d.encodeUpdate(u))
				u.Machine = "m"
				d.decode(d.encodeUpdate(u))
				b := &UtilBatch{Trace: tc, Reports: []UtilReport{
					{Machine: "ok", Seq: 1, Entries: entries[:min(n, 2)]},
					{Machine: u.Machine, Seq: 9, Entries: entries},
					{Machine: strings.Repeat("m", name), Seq: 9, Entries: entries[:min(n, 8)]},
				}}
				d.decode(d.encodeBatch(b))
			}
		}
	}
}

func FuzzUtilReportDifferential(f *testing.F) {
	fuzzSeeds(f)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		data := make([]byte, 64<<uint(i%4))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		(&differ{t: t}).run(data)
	})
}

// TestInternCalledOncePerReport pins the contract solverd leans on:
// the interner sees each report's machine name exactly once, in
// datagram order, and what it returns is what the report carries.
func TestInternCalledOncePerReport(t *testing.T) {
	b := batchFixture(TraceContext{})
	buf, err := MarshalUtilBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	var seen []string
	intern := func(name []byte) string {
		seen = append(seen, string(name))
		return "canon-" + string(name)
	}
	var got UtilBatch
	if err := UnmarshalUtilBatchInto(&got, buf, intern); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(b.Reports) {
		t.Fatalf("intern called %d times for %d reports", len(seen), len(b.Reports))
	}
	for i, r := range b.Reports {
		if seen[i] != r.Machine || got.Reports[i].Machine != "canon-"+r.Machine {
			t.Errorf("report %d: interned %q -> %q, want %q", i, seen[i], got.Reports[i].Machine, r.Machine)
		}
	}
}

// TestReportCodecDoesNotAllocate: encoding into a reused buffer and
// decoding into reused storage with an interner are free once warm.
func TestReportCodecDoesNotAllocate(t *testing.T) {
	names := make([]string, MaxBatchMachines)
	b := &UtilBatch{Trace: TraceContext{Trace: 5, Span: 6}}
	for i := range names {
		names[i] = "machine" + strings.Repeat("0", i%3) + string(rune('a'+i))
		b.Reports = append(b.Reports, UtilReport{Machine: names[i], Seq: 7, Entries: []UtilEntry{
			{Source: model.UtilDisk, Util: 0.25}, {Source: model.UtilCPU, Util: 0.5}, {Source: model.UtilNet, Util: 0.125},
		}})
	}
	table := map[string]string{}
	for _, n := range names {
		table[n] = n
	}
	intern := func(name []byte) string { return table[string(name)] }
	u := &UtilUpdate{Machine: names[0], Seq: 7, Entries: b.Reports[0].Entries, Trace: b.Trace}

	var dgram, single []byte
	var err error
	var intoB UtilBatch
	var intoU UtilUpdate
	check := func(what string, fn func()) {
		t.Helper()
		fn() // warm-up grows the reused storage
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", what, n)
		}
	}
	check("AppendUtilBatch", func() { dgram, err = AppendUtilBatch(dgram[:0], b) })
	check("AppendUtilUpdate", func() { single, err = AppendUtilUpdate(single[:0], u) })
	check("UnmarshalUtilBatchInto", func() { err = UnmarshalUtilBatchInto(&intoB, dgram, intern) })
	check("UnmarshalUtilUpdateInto", func() { err = UnmarshalUtilUpdateInto(&intoU, single, intern) })
	if intoB.Reports[3].Machine != names[3] || !sameEntries(intoU.Entries, []UtilEntry{
		{Source: model.UtilCPU, Util: 0.5}, {Source: model.UtilDisk, Util: 0.25}, {Source: model.UtilNet, Util: 0.125},
	}) {
		t.Errorf("decoded %+v / %+v", intoB.Reports[3], intoU)
	}
}
