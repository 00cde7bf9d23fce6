package wire

import (
	"testing"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

// Fuzz targets for every decoder: arbitrary datagrams must yield an
// error or a value whose re-encoding decodes equal — never a panic.

func fuzzSeeds(f *testing.F) {
	u, _ := MarshalUtilUpdate(&UtilUpdate{
		Machine: "machine1", Seq: 7,
		Entries: []UtilEntry{{Source: model.UtilCPU, Util: 0.5}},
	})
	f.Add(u)
	one := []Probe{{Machine: "m", Node: "cpu"}}
	r, _ := AppendSensorReadMany(nil, &SensorReadMany{Probes: one})
	f.Add(r)
	rep, _ := AppendSensorReplyMany(nil, &SensorReplyMany{Status: StatusOK, Temps: []units.Celsius{42}})
	f.Add(rep)
	// Version-2 (traced) forms of the messages that carry a trace
	// context, so both encodings are always in the corpus.
	tc := TraceContext{Trace: 0xFEEDFACE, Span: 0xBEEF}
	u2, _ := MarshalUtilUpdate(&UtilUpdate{
		Machine: "machine1", Seq: 8,
		Entries: []UtilEntry{{Source: model.UtilCPU, Util: 0.5}},
		Trace:   tc,
	})
	f.Add(u2)
	r2, _ := AppendSensorReadMany(nil, &SensorReadMany{Probes: one, Trace: tc})
	f.Add(r2)
	f.Add(r2[:len(r2)-1])
	op, _ := MarshalFiddleOp(&FiddleOp{Op: OpPinInlet, Strings: []string{"m"}, Floats: []float64{30}})
	f.Add(op)
	// A retired list reply (type 0x07), which no decoder may accept.
	f.Add([]byte{Version, 0x07, StatusOK, 2, 1, 'a', 1, 'b'})
	// Scale-out messages, v1 and traced v2 forms plus the interesting
	// rejections (truncated, oversized count, trailing slack, zero
	// machines) so the corpus always walks the strict-decode branches.
	be := &BoundaryExchange{Region: 1, Tick: 9, Records: []BoundaryRecord{{Machine: 2, Temp: 38.5}}}
	b1, _ := MarshalBoundaryExchange(be)
	f.Add(b1)
	be.Trace = tc
	b2, _ := MarshalBoundaryExchange(be)
	f.Add(b2)
	f.Add(b1[:len(b1)-4])
	f.Add(append(append([]byte(nil), b2...), 0))
	f.Add([]byte{Version, MsgBoundaryExchange, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 9, 0xFF, 0xFF})
	ub := &UtilBatch{Reports: []UtilReport{
		{Machine: "m1", Seq: 3, Entries: []UtilEntry{{Source: model.UtilCPU, Util: 0.5}}},
		{Machine: "m2", Seq: 3, Entries: []UtilEntry{{Source: model.UtilDisk, Util: 0.25}}},
	}}
	ub1, _ := MarshalUtilBatch(ub)
	f.Add(ub1)
	ub.Trace = tc
	ub2, _ := MarshalUtilBatch(ub)
	f.Add(ub2)
	f.Add(ub1[:len(ub1)-3])
	f.Add(append(append([]byte(nil), ub2...), 0))
	f.Add([]byte{Version, MsgUtilBatch, 0})
	rm, _ := AppendSensorReadMany(nil, &SensorReadMany{Probes: []Probe{{"m1", "cpu"}, {"m2", "disk_platters"}}})
	f.Add(rm)
	f.Add(rm[:len(rm)-2])
	f.Add([]byte{Version, MsgSensorReadMany, 0})
	rmOK, _ := AppendSensorReplyMany(nil, &SensorReplyMany{Status: StatusOK, Temps: []units.Celsius{40.5, 38}})
	f.Add(rmOK)
	rmBad, _ := AppendSensorReplyMany(nil, &SensorReplyMany{Status: StatusUnknown, Failed: 1, Message: "unknown node"})
	f.Add(rmBad)
	f.Add(append(append([]byte(nil), rmOK...), 0))
	f.Add([]byte{})
	f.Add([]byte{Version})
	f.Add([]byte{Version, 0xEE, 1, 2, 3})
}

func FuzzUnmarshalUtilUpdate(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := UnmarshalUtilUpdate(data)
		if err != nil {
			return
		}
		buf, err := MarshalUtilUpdate(u)
		if err != nil {
			t.Fatalf("decoded update does not re-encode: %v", err)
		}
		if len(buf) != UtilUpdateSize {
			t.Fatalf("re-encoded size %d", len(buf))
		}
		again, err := UnmarshalUtilUpdate(buf)
		if err != nil {
			t.Fatalf("re-encoded update does not decode: %v", err)
		}
		if again.Trace != u.Trace {
			t.Fatalf("trace context unstable: %+v -> %+v", u.Trace, again.Trace)
		}
		for _, e := range u.Entries {
			if !e.Util.Valid() {
				t.Fatalf("decoded invalid utilization %v", float64(e.Util))
			}
		}
	})
}

// FuzzUnmarshalSensorRead fuzzes the read of one probe, the form every
// single-sensor read takes: the retired single-probe types 0x02 and
// 0x03 never decode as a sensor read or reply, and a decoded read of
// one probe is a 0x0A datagram that re-encodes byte for byte.
func FuzzUnmarshalSensorRead(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var r SensorReadMany
		err := UnmarshalSensorReadManyInto(&r, data, nil)
		if len(data) > 1 && (data[1] == 0x02 || data[1] == 0x03) {
			var rep SensorReplyMany
			if err == nil || UnmarshalSensorReplyManyInto(&rep, data) == nil {
				t.Fatalf("retired type %#x decoded: %x", data[1], data)
			}
			return
		}
		if err != nil || len(r.Probes) != 1 {
			return
		}
		if typ, err := Type(data); err != nil || typ != MsgSensorReadMany {
			t.Fatalf("Type = %#x, %v", typ, err)
		}
		one := SensorReadMany{Probes: []Probe{r.Probes[0]}, Trace: r.Trace}
		buf, err := AppendSensorReadMany(nil, &one)
		if err != nil {
			t.Fatalf("decoded read does not re-encode: %v", err)
		}
		if string(buf) != string(data) {
			t.Fatalf("re-encoding differs: %x -> %x", data, buf)
		}
	})
}

func FuzzUnmarshalFiddleOp(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		op, err := UnmarshalFiddleOp(data)
		if err != nil {
			return
		}
		if err := ValidateFiddle(op); err != nil {
			t.Fatalf("decoder returned invalid op: %v", err)
		}
		if _, err := MarshalFiddleOp(op); err != nil {
			t.Fatalf("decoded op does not re-encode: %v", err)
		}
	})
}

func FuzzUnmarshalBoundaryExchange(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ParseBoundaryExchange(data)
		if err != nil {
			return
		}
		if fr.Len() == 0 || fr.Len() > MaxBoundaryRecords {
			t.Fatalf("decoder accepted %d records", fr.Len())
		}
		buf, err := MarshalBoundaryExchange(exchangeOf(fr))
		if err != nil {
			t.Fatalf("decoded exchange does not re-encode: %v", err)
		}
		again, err := ParseBoundaryExchange(buf)
		if err != nil {
			t.Fatalf("re-encoded exchange does not decode: %v", err)
		}
		if again.Trace != fr.Trace || again.Tick != fr.Tick || again.Len() != fr.Len() {
			t.Fatalf("exchange unstable: %+v -> %+v", fr, again)
		}
	})
}

func FuzzUnmarshalUtilBatch(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := UnmarshalUtilBatch(data)
		if err != nil {
			return
		}
		if len(b.Reports) == 0 || len(b.Reports) > MaxBatchMachines {
			t.Fatalf("decoder accepted %d reports", len(b.Reports))
		}
		buf, err := MarshalUtilBatch(b)
		if err != nil {
			t.Fatalf("decoded batch does not re-encode: %v", err)
		}
		again, err := UnmarshalUtilBatch(buf)
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if again.Trace != b.Trace {
			t.Fatalf("trace context unstable: %+v -> %+v", b.Trace, again.Trace)
		}
		for _, r := range again.Reports {
			for _, e := range r.Entries {
				if !e.Util.Valid() {
					t.Fatalf("decoded invalid utilization %v", float64(e.Util))
				}
			}
		}
	})
}

// FuzzUnmarshalListReply fuzzes the retired list protocol: whatever
// follows the type byte, a datagram typed 0x06 (list request) or 0x07
// (list reply) decodes as no live message.
func FuzzUnmarshalListReply(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		for _, typ := range []byte{0x06, 0x07} {
			d := append([]byte(nil), data...)
			d[1] = typ
			if name := liveDecoder(d); name != "" {
				t.Fatalf("retired type %#x decodes as a %s: %x", typ, name, d)
			}
		}
	})
}

func FuzzUnmarshalSensorReadMany(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var r SensorReadMany
		if err := UnmarshalSensorReadManyInto(&r, data, nil); err != nil {
			return
		}
		if len(r.Probes) == 0 || len(r.Probes) > MaxSensorProbes {
			t.Fatalf("decoder accepted %d probes", len(r.Probes))
		}
		if SensorReadManyFit(r.Probes) != len(r.Probes) {
			t.Fatalf("decoded request of %d probes does not fit one request", len(r.Probes))
		}
		buf, err := AppendSensorReadMany(nil, &r)
		if err != nil {
			t.Fatalf("decoded request does not re-encode: %v", err)
		}
		if string(buf) != string(data) {
			t.Fatalf("re-encoding differs: %x -> %x", data, buf)
		}
	})
}

func FuzzUnmarshalSensorReplyMany(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var r SensorReplyMany
		if err := UnmarshalSensorReplyManyInto(&r, data); err != nil {
			return
		}
		if r.Status == StatusOK && (len(r.Temps) == 0 || len(r.Temps) > MaxSensorProbes) {
			t.Fatalf("decoder accepted %d temperatures", len(r.Temps))
		}
		buf, err := AppendSensorReplyMany(nil, &r)
		if err != nil {
			t.Fatalf("decoded reply does not re-encode: %v", err)
		}
		if len(buf) > MaxReplySize {
			t.Fatalf("reply of %d bytes exceeds MaxReplySize", len(buf))
		}
		if string(buf) != string(data) {
			t.Fatalf("re-encoding differs: %x -> %x", data, buf)
		}
	})
}
