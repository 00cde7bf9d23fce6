package wire

import (
	"reflect"
	"testing"

	"github.com/darklab/mercury/internal/model"
)

func boundaryFixture(tc TraceContext) *BoundaryExchange {
	return &BoundaryExchange{
		Region: 1,
		Tick:   42,
		Records: []BoundaryRecord{
			{Machine: 3, Temp: 36.25},
			{Machine: 7, Temp: 41.5},
		},
		Trace: tc,
	}
}

func TestBoundaryExchangeRoundTrip(t *testing.T) {
	for _, tc := range []TraceContext{{}, {Trace: 0xFEED, Span: 0xBEEF}} {
		b := boundaryFixture(tc)
		buf, err := MarshalBoundaryExchange(b)
		if err != nil {
			t.Fatal(err)
		}
		wantVer := byte(Version)
		if !tc.Zero() {
			wantVer = VersionTrace
		}
		if buf[0] != wantVer {
			t.Fatalf("version byte = %#x, want %#x", buf[0], wantVer)
		}
		f, err := ParseBoundaryExchange(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got := exchangeOf(f); !reflect.DeepEqual(b, got) {
			t.Errorf("round trip = %+v, want %+v", got, b)
		}
	}
}

// exchangeOf copies a parsed frame into a message that owns its
// records.
func exchangeOf(f BoundaryFrame) *BoundaryExchange {
	b := &BoundaryExchange{Region: f.Region, Tick: f.Tick, Trace: f.Trace, Records: make([]BoundaryRecord, f.Len())}
	for i := range b.Records {
		b.Records[i] = f.Record(i)
	}
	return b
}

func TestBoundaryExchangeRejectsMalformed(t *testing.T) {
	good, err := MarshalBoundaryExchange(boundaryFixture(TraceContext{Trace: 5, Span: 6}))
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation must fail — there is no valid prefix.
	for n := 0; n < len(good); n++ {
		if _, err := ParseBoundaryExchange(good[:n]); err == nil {
			t.Errorf("truncated to %d bytes: want error", n)
		}
	}
	if _, err := ParseBoundaryExchange(append(append([]byte(nil), good...), 0)); err != ErrTrailingBytes {
		t.Errorf("trailing byte: err = %v, want ErrTrailingBytes", err)
	}
	if _, err := MarshalBoundaryExchange(&BoundaryExchange{Region: 1, Tick: 1}); err != ErrEmptyBoundary {
		t.Errorf("empty marshal: err = %v, want ErrEmptyBoundary", err)
	}
	empty := append([]byte(nil), good[:boundaryHeaderLen]...)
	empty[0] = Version // drop the trace so the count is the last field
	empty[boundaryHeaderLen-2], empty[boundaryHeaderLen-1] = 0, 0
	if _, err := ParseBoundaryExchange(empty); err != ErrEmptyBoundary {
		t.Errorf("zero records: err = %v, want ErrEmptyBoundary", err)
	}
	big := &BoundaryExchange{Region: 0, Tick: 1, Records: make([]BoundaryRecord, MaxBoundaryRecords+1)}
	if _, err := MarshalBoundaryExchange(big); err != ErrTooManyBoundary {
		t.Errorf("oversize marshal: err = %v, want ErrTooManyBoundary", err)
	}
	// Zero trace ID in a v2 datagram is malformed, like every other
	// traced message.
	zeroed := append([]byte(nil), good...)
	for i := len(zeroed) - 16; i < len(zeroed)-8; i++ {
		zeroed[i] = 0
	}
	if _, err := ParseBoundaryExchange(zeroed); err != ErrBadTrace {
		t.Errorf("zero trace id: err = %v, want ErrBadTrace", err)
	}
}

// TestBoundaryAppendAndFrame: the append form after a prefix yields
// MarshalBoundaryExchange's bytes, the frame reads them back record by
// record, and neither allocates.
func TestBoundaryAppendAndFrame(t *testing.T) {
	b := boundaryFixture(TraceContext{Trace: 5, Span: 6})
	want, err := MarshalBoundaryExchange(b)
	if err != nil {
		t.Fatal(err)
	}
	dgram := []byte("prefix")
	var f BoundaryFrame
	if n := testing.AllocsPerRun(100, func() {
		dgram, err = AppendBoundaryExchange(dgram[:6], b)
		if err == nil {
			f, err = ParseBoundaryExchange(dgram[6:])
		}
	}); n != 0 || err != nil {
		t.Fatalf("append+parse: %v allocs/op, err %v; want 0, nil", n, err)
	}
	if string(dgram[:6]) != "prefix" || !reflect.DeepEqual(dgram[6:], want) {
		t.Errorf("appended %x, want prefix + %x", dgram, want)
	}
	if f.Region != b.Region || f.Tick != b.Tick || f.Trace != b.Trace || f.Len() != len(b.Records) {
		t.Fatalf("frame = %+v with %d records, want %+v", f, f.Len(), b)
	}
	for i, r := range b.Records {
		if f.Record(i) != r {
			t.Errorf("record %d = %+v, want %+v", i, f.Record(i), r)
		}
	}
	if got, err := AppendBoundaryExchange(dgram[:6], &BoundaryExchange{}); err != ErrEmptyBoundary || len(got) != 6 {
		t.Errorf("empty append: %d bytes, %v; want dst unchanged and ErrEmptyBoundary", len(got), err)
	}
}

// boundaryHeaderLen is the fixed prefix of a boundary exchange:
// version, type, region u32, tick u64, count u16.
const boundaryHeaderLen = 2 + 4 + 8 + 2

func batchFixture(tc TraceContext) *UtilBatch {
	return &UtilBatch{
		Reports: []UtilReport{
			{Machine: "rack1pos1", Seq: 9, Entries: []UtilEntry{
				{Source: model.UtilCPU, Util: 0.75},
				{Source: model.UtilDisk, Util: 0.25},
			}},
			{Machine: "rack1pos2", Seq: 9, Entries: []UtilEntry{
				{Source: model.UtilCPU, Util: 0.5},
			}},
		},
		Trace: tc,
	}
}

func TestUtilBatchRoundTrip(t *testing.T) {
	for _, tc := range []TraceContext{{}, {Trace: 0xFEED, Span: 0xBEEF}} {
		b := batchFixture(tc)
		buf, err := MarshalUtilBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalUtilBatch(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(b, got) {
			t.Errorf("round trip = %+v, want %+v", got, b)
		}
	}
}

func TestUtilBatchRejectsMalformed(t *testing.T) {
	good, err := MarshalUtilBatch(batchFixture(TraceContext{Trace: 5, Span: 6}))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(good); n++ {
		if _, err := UnmarshalUtilBatch(good[:n]); err == nil {
			t.Errorf("truncated to %d bytes: want error", n)
		}
	}
	if _, err := UnmarshalUtilBatch(append(append([]byte(nil), good...), 0)); err != ErrTrailingBytes {
		t.Errorf("trailing byte: err = %v, want ErrTrailingBytes", err)
	}
	if _, err := MarshalUtilBatch(&UtilBatch{}); err != ErrEmptyBatch {
		t.Errorf("empty marshal: err = %v, want ErrEmptyBatch", err)
	}
	if _, err := UnmarshalUtilBatch([]byte{Version, MsgUtilBatch, 0}); err != ErrEmptyBatch {
		t.Errorf("zero machines: err = %v, want ErrEmptyBatch", err)
	}
	big := &UtilBatch{Reports: make([]UtilReport, MaxBatchMachines+1)}
	for i := range big.Reports {
		big.Reports[i].Machine = "m"
	}
	if _, err := MarshalUtilBatch(big); err != ErrTooManyBatch {
		t.Errorf("oversize marshal: err = %v, want ErrTooManyBatch", err)
	}
	nine := &UtilBatch{Reports: []UtilReport{{Machine: "m", Entries: make([]UtilEntry, 9)}}}
	if _, err := MarshalUtilBatch(nine); err != ErrTooManyUtil {
		t.Errorf("9 entries: err = %v, want ErrTooManyUtil", err)
	}
	zeroed := append([]byte(nil), good...)
	for i := len(zeroed) - 16; i < len(zeroed)-8; i++ {
		zeroed[i] = 0
	}
	if _, err := UnmarshalUtilBatch(zeroed); err != ErrBadTrace {
		t.Errorf("zero trace id: err = %v, want ErrBadTrace", err)
	}
}

// BenchmarkUtilBatch compares reporting one 16-machine rack as a
// single batch datagram against the historical one-128-byte-datagram-
// per-machine fan-out (marshal plus unmarshal, the full wire cost on
// both ends minus the syscalls, which the batch also divides by 16).
func BenchmarkUtilBatch(b *testing.B) {
	entries := []UtilEntry{
		{Source: model.UtilCPU, Util: 0.7},
		{Source: model.UtilDisk, Util: 0.2},
	}
	names := make([]string, MaxBatchMachines)
	for i := range names {
		names[i] = model.RackMachine(1, i+1)
	}

	b.Run("batch", func(b *testing.B) {
		batch := &UtilBatch{}
		for _, n := range names {
			batch.Reports = append(batch.Reports, UtilReport{Machine: n, Seq: 1, Entries: entries})
		}
		b.ReportAllocs()
		var bytes int64
		for i := 0; i < b.N; i++ {
			buf, err := MarshalUtilBatch(batch)
			if err != nil {
				b.Fatal(err)
			}
			bytes = int64(len(buf))
			if _, err := UnmarshalUtilBatch(buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(bytes), "bytes/interval")
		b.ReportMetric(1, "datagrams/interval")
	})
	b.Run("single-datagrams", func(b *testing.B) {
		b.ReportAllocs()
		var bytes int64
		for i := 0; i < b.N; i++ {
			bytes = 0
			for _, n := range names {
				buf, err := MarshalUtilUpdate(&UtilUpdate{Machine: n, Seq: 1, Entries: entries})
				if err != nil {
					b.Fatal(err)
				}
				bytes += int64(len(buf))
				if _, err := UnmarshalUtilUpdate(buf); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(bytes), "bytes/interval")
		b.ReportMetric(float64(len(names)), "datagrams/interval")
	})
}
