package wire

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

func TestUtilUpdateRoundTrip(t *testing.T) {
	u := &UtilUpdate{
		Machine: "machine1",
		Seq:     42,
		Entries: []UtilEntry{
			{Source: model.UtilDisk, Util: 0.25},
			{Source: model.UtilCPU, Util: 0.75},
		},
	}
	buf, err := MarshalUtilUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != UtilUpdateSize {
		t.Errorf("datagram size = %d, want exactly %d", len(buf), UtilUpdateSize)
	}
	got, err := UnmarshalUtilUpdate(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Machine != "machine1" || got.Seq != 42 {
		t.Errorf("header = %q seq %d", got.Machine, got.Seq)
	}
	// Entries come back sorted by source: cpu before disk.
	want := []UtilEntry{
		{Source: model.UtilCPU, Util: 0.75},
		{Source: model.UtilDisk, Util: 0.25},
	}
	if !reflect.DeepEqual(got.Entries, want) {
		t.Errorf("entries = %+v, want %+v", got.Entries, want)
	}
}

func TestUtilUpdateClampsValues(t *testing.T) {
	u := &UtilUpdate{
		Machine: "m",
		Entries: []UtilEntry{{Source: model.UtilCPU, Util: units.Fraction(1.7)}},
	}
	buf, err := MarshalUtilUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalUtilUpdate(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entries[0].Util != 1 {
		t.Errorf("clamped util = %v, want 1", got.Entries[0].Util)
	}
}

func TestUtilUpdateLimits(t *testing.T) {
	var entries []UtilEntry
	for i := 0; i < 9; i++ {
		entries = append(entries, UtilEntry{Source: model.UtilSource(string(rune('a' + i))), Util: 0.5})
	}
	if _, err := MarshalUtilUpdate(&UtilUpdate{Machine: "m", Entries: entries}); err != ErrTooManyUtil {
		t.Errorf("9 entries: err = %v, want ErrTooManyUtil", err)
	}
	long := make([]byte, 300)
	for i := range long {
		long[i] = 'x'
	}
	if _, err := MarshalUtilUpdate(&UtilUpdate{Machine: string(long)}); err != ErrStringSize {
		t.Errorf("long machine name: err = %v, want ErrStringSize", err)
	}
}

func TestUtilUpdateProperty(t *testing.T) {
	f := func(seq uint32, cpu, disk float64) bool {
		if math.IsNaN(cpu) || math.IsNaN(disk) {
			return true
		}
		u := &UtilUpdate{
			Machine: "machine7",
			Seq:     seq,
			Entries: []UtilEntry{
				{Source: model.UtilCPU, Util: units.Fraction(cpu)},
				{Source: model.UtilDisk, Util: units.Fraction(disk)},
			},
		}
		buf, err := MarshalUtilUpdate(u)
		if err != nil || len(buf) != UtilUpdateSize {
			return false
		}
		got, err := UnmarshalUtilUpdate(buf)
		if err != nil {
			return false
		}
		return got.Seq == seq && got.Entries[0].Util.Valid() && got.Entries[1].Util.Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSensorReadRoundTrip(t *testing.T) {
	r := SensorReadMany{Probes: []Probe{{Machine: "machine1", Node: "disk_platters"}}}
	buf, err := AppendSensorReadMany(nil, &r)
	if err != nil {
		t.Fatal(err)
	}
	var got SensorReadMany
	if err := UnmarshalSensorReadManyInto(&got, buf, nil); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("round trip = %+v", got)
	}
}

func TestSensorReplyRoundTrip(t *testing.T) {
	for _, r := range []SensorReplyMany{
		{Status: StatusOK, Temps: []units.Celsius{38.6}},
		{Status: StatusUnknown, Message: "unknown node \"ghost\""},
	} {
		buf, err := AppendSensorReplyMany(nil, &r)
		if err != nil {
			t.Fatal(err)
		}
		var got SensorReplyMany
		if err := UnmarshalSensorReplyManyInto(&got, buf); err != nil {
			t.Fatal(err)
		}
		if got.Status != r.Status || !slices.Equal(got.Temps, r.Temps) || got.Message != r.Message {
			t.Errorf("round trip = %+v, want %+v", got, r)
		}
	}
}

func TestListRoundTrip(t *testing.T) {
	req := &ListNodes{Machine: "machine1"}
	buf, err := MarshalListNodes(req)
	if err != nil {
		t.Fatal(err)
	}
	gotReq, err := UnmarshalListNodes(buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotReq.Machine != "machine1" {
		t.Errorf("machine = %q", gotReq.Machine)
	}
	rep := &ListReply{Status: StatusOK, Names: []string{"cpu", "disk_platters", "cpu_air"}}
	buf, err = MarshalListReply(rep)
	if err != nil {
		t.Fatal(err)
	}
	gotRep, err := UnmarshalListReply(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, gotRep) {
		t.Errorf("round trip = %+v", gotRep)
	}
}

func TestListReplyTooBig(t *testing.T) {
	var names []string
	for i := 0; i < 60; i++ {
		names = append(names, "a-rather-long-node-name-padding-x")
	}
	if _, err := MarshalListReply(&ListReply{Names: names}); err == nil {
		t.Error("oversize list reply: want error")
	}
}

func TestFiddleOpRoundTrip(t *testing.T) {
	ops := []*FiddleOp{
		{Op: OpPinInlet, Strings: []string{"machine1"}, Floats: []float64{30}},
		{Op: OpUnpinInlet, Strings: []string{"machine1"}},
		{Op: OpSetNodeTemp, Strings: []string{"machine1", "cpu"}, Floats: []float64{55}},
		{Op: OpSetSourceTemp, Strings: []string{"ac"}, Floats: []float64{27}},
		{Op: OpSetHeatK, Strings: []string{"machine1", "cpu", "cpu_air"}, Floats: []float64{1.5}},
		{Op: OpSetAirFraction, Strings: []string{"machine1", "inlet", "disk_air"}, Floats: []float64{0.3}},
		{Op: OpSetFanFlow, Strings: []string{"machine1"}, Floats: []float64{77.2}},
		{Op: OpSetPowerScale, Strings: []string{"machine1", "cpu"}, Floats: []float64{0.5}},
		{Op: OpSetMachinePower, Strings: []string{"machine1"}, Floats: []float64{0}},
	}
	for _, op := range ops {
		buf, err := MarshalFiddleOp(op)
		if err != nil {
			t.Fatalf("%s: %v", OpName(op.Op), err)
		}
		got, err := UnmarshalFiddleOp(buf)
		if err != nil {
			t.Fatalf("%s: %v", OpName(op.Op), err)
		}
		if !reflect.DeepEqual(op, got) {
			t.Errorf("%s round trip = %+v, want %+v", OpName(op.Op), got, op)
		}
	}
}

func TestFiddleOpValidation(t *testing.T) {
	bad := []*FiddleOp{
		{Op: 0xFF},
		{Op: OpPinInlet}, // missing args
		{Op: OpPinInlet, Strings: []string{"m", "extra"}, Floats: []float64{1}}, // too many strings
		{Op: OpUnpinInlet, Strings: []string{"m"}, Floats: []float64{1}},        // extra float
	}
	for _, op := range bad {
		if _, err := MarshalFiddleOp(op); err == nil {
			t.Errorf("op %s with wrong shape: want error", OpName(op.Op))
		}
	}
}

func TestFiddleReplyRoundTrip(t *testing.T) {
	r := &FiddleReply{Status: StatusBadOp, Message: "negative k"}
	buf, err := AppendFiddleReply(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalFiddleReply(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Errorf("round trip = %+v", got)
	}
}

func TestTypePeek(t *testing.T) {
	buf, _ := AppendSensorReadMany(nil, &SensorReadMany{Probes: []Probe{{Machine: "m", Node: "cpu"}}})
	typ, err := Type(buf)
	if err != nil || typ != MsgSensorReadMany {
		t.Errorf("Type = %v, %v", typ, err)
	}
	if _, err := Type([]byte{Version}); err != ErrShort {
		t.Errorf("short: %v", err)
	}
	if _, err := Type([]byte{0x99, MsgSensorReadMany}); err != ErrBadVersion {
		t.Errorf("bad version: %v", err)
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	good, _ := MarshalUtilUpdate(&UtilUpdate{
		Machine: "m",
		Entries: []UtilEntry{{Source: model.UtilCPU, Util: 1}},
	})
	// Truncations of a valid datagram must error, not panic.
	for n := 0; n < 20; n++ {
		if _, err := UnmarshalUtilUpdate(good[:n]); err == nil {
			t.Errorf("truncated to %d bytes: want error", n)
		}
	}
	// Wrong type for the decoder.
	if err := UnmarshalSensorReadManyInto(&SensorReadMany{}, good, nil); err != ErrBadType {
		t.Errorf("wrong type: %v, want ErrBadType", err)
	}
	// A corrupted entry count past the buffer end.
	bad := append([]byte(nil), good...)
	bad[2+1+1+4] = 200 // entry count byte (after header, len-1 name, seq)
	if _, err := UnmarshalUtilUpdate(bad); err == nil {
		t.Error("corrupt entry count: want error")
	}
}

func TestOpNames(t *testing.T) {
	if OpName(OpSetHeatK) != "set-heat-k" {
		t.Errorf("OpName = %q", OpName(OpSetHeatK))
	}
	if OpName(0xEE) != "op-0xee" {
		t.Errorf("OpName unknown = %q", OpName(0xEE))
	}
}

func TestUtilUpdateTraceRoundTrip(t *testing.T) {
	u := &UtilUpdate{
		Machine: "machine1",
		Seq:     9,
		Entries: []UtilEntry{{Source: model.UtilCPU, Util: 0.5}},
		Trace:   TraceContext{Trace: 0xDEADBEEF, Span: 0x1234},
	}
	buf, err := MarshalUtilUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != UtilUpdateSize {
		t.Fatalf("size = %d, want %d", len(buf), UtilUpdateSize)
	}
	if buf[0] != VersionTrace {
		t.Fatalf("version byte = %#x, want VersionTrace", buf[0])
	}
	if buf[UtilTraceOffset] != TraceFlag {
		t.Fatalf("trailer flag = %#x, want %#x", buf[UtilTraceOffset], TraceFlag)
	}
	got, err := UnmarshalUtilUpdate(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != u.Trace {
		t.Fatalf("trace = %+v, want %+v", got.Trace, u.Trace)
	}
	if got.Machine != "machine1" || got.Seq != 9 {
		t.Fatalf("payload = %q seq %d", got.Machine, got.Seq)
	}
}

func TestUtilUpdateUntracedStaysVersion1(t *testing.T) {
	// The v1 encoding must be byte-identical with and without the
	// Trace field in the struct: zero context selects version 1.
	u := &UtilUpdate{
		Machine: "machine1",
		Seq:     42,
		Entries: []UtilEntry{{Source: model.UtilCPU, Util: 0.75}},
	}
	buf, err := MarshalUtilUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != Version {
		t.Fatalf("version byte = %#x, want %#x", buf[0], Version)
	}
	got, err := UnmarshalUtilUpdate(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Trace.Zero() {
		t.Fatalf("untraced decode produced trace %+v", got.Trace)
	}
}

func TestUtilUpdateTraceRejectsMalformed(t *testing.T) {
	good, err := MarshalUtilUpdate(&UtilUpdate{
		Machine: "machine1",
		Entries: []UtilEntry{{Source: model.UtilCPU, Util: 0.5}},
		Trace:   TraceContext{Trace: 7, Span: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(b []byte)) error {
		b := append([]byte(nil), good...)
		mutate(b)
		_, err := UnmarshalUtilUpdate(b)
		return err
	}
	if err := corrupt(func(b []byte) { b[UtilTraceOffset] = 0x00 }); err != ErrBadTrace {
		t.Errorf("missing flag byte: err = %v, want ErrBadTrace", err)
	}
	if err := corrupt(func(b []byte) { b[UtilTraceOffset-1] = 0xAA }); err != ErrBadTrace {
		t.Errorf("dirty padding: err = %v, want ErrBadTrace", err)
	}
	if err := corrupt(func(b []byte) {
		// Zero the trace ID: v2 with no trace is malformed.
		for i := UtilTraceOffset + 1; i < UtilTraceOffset+9; i++ {
			b[i] = 0
		}
	}); err != ErrBadTrace {
		t.Errorf("zero trace id: err = %v, want ErrBadTrace", err)
	}
	// Payload spilling into the trailer region: build a v2 update whose
	// entries reach past UtilTraceOffset.
	big := &UtilUpdate{
		Machine: "a-machine-with-a-rather-long-name-indeed",
		Entries: []UtilEntry{
			{Source: model.UtilSource(strings.Repeat("s", 60)), Util: 0.1},
		},
		Trace: TraceContext{Trace: 1, Span: 2},
	}
	if _, err := MarshalUtilUpdate(big); err == nil {
		t.Error("oversize traced update: want marshal error")
	}
	if _, err := MarshalUtilUpdate(&UtilUpdate{Machine: big.Machine, Entries: big.Entries}); err != nil {
		t.Errorf("same payload untraced should fit: %v", err)
	}
}

func TestSensorReadTraceRoundTrip(t *testing.T) {
	r := SensorReadMany{Probes: []Probe{{Machine: "machine1", Node: "cpu"}}, Trace: TraceContext{Trace: 11, Span: 22}}
	buf, err := AppendSensorReadMany(nil, &r)
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != VersionTrace {
		t.Fatalf("version byte = %#x, want VersionTrace", buf[0])
	}
	var got SensorReadMany
	if err := UnmarshalSensorReadManyInto(&got, buf, nil); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("round trip = %+v", got)
	}
	// Truncating the trace trailer must error, not fall back to v1.
	if err := UnmarshalSensorReadManyInto(&got, buf[:len(buf)-8], nil); err != ErrShort {
		t.Errorf("truncated trailer: err = %v, want ErrShort", err)
	}
}

// TestSensorReplyTraceEcho: a reply to a traced read does not echo the
// trace context. It is version 1 whatever the request carried, and a
// version-2 reply with a trace trailer, the echo older servers sent,
// is rejected rather than read as temperatures.
func TestSensorReplyTraceEcho(t *testing.T) {
	r := SensorReplyMany{Status: StatusOK, Temps: []units.Celsius{66.5}}
	buf, err := AppendSensorReplyMany(nil, &r)
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != Version {
		t.Fatalf("version byte = %#x, want Version", buf[0])
	}
	var got SensorReplyMany
	if err := UnmarshalSensorReplyManyInto(&got, buf); err != nil || !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip = %+v, %v", got, err)
	}
	echo := append([]byte{VersionTrace}, buf[1:]...)
	echo = append(echo, 0, 0, 0, 0, 0, 0, 0, 11, 0, 0, 0, 0, 0, 0, 0, 22)
	if err := UnmarshalSensorReplyManyInto(&got, echo); err != ErrBadVersion {
		t.Errorf("echoing reply: err = %v, want ErrBadVersion", err)
	}
}

func TestTypePeekAcceptsTraceVersion(t *testing.T) {
	buf, _ := AppendSensorReadMany(nil, &SensorReadMany{Probes: []Probe{{Machine: "m", Node: "cpu"}}, Trace: TraceContext{Trace: 3, Span: 4}})
	typ, err := Type(buf)
	if err != nil || typ != MsgSensorReadMany {
		t.Errorf("Type(v2) = %v, %v", typ, err)
	}
}

// TestSensorScratchCodecs: a read of one probe, the form every
// single-sensor read takes, keeps its wire layout in the Append and
// Into forms, which reuse their storage, reset a previous trace, and
// with interned names decode and encode without allocating.
func TestSensorScratchCodecs(t *testing.T) {
	one := []Probe{{Machine: "machine1", Node: "cpu"}}
	traced := &SensorReadMany{Probes: one, Trace: TraceContext{Trace: 11, Span: 22}}
	plain := &SensorReadMany{Probes: one}
	v1 := "\x01\x0a\x01\x08machine1\x03cpu"
	layouts := map[*SensorReadMany]string{
		plain:  v1,
		traced: "\x02" + v1[1:] + "\x00\x00\x00\x00\x00\x00\x00\x0b\x00\x00\x00\x00\x00\x00\x00\x16",
	}
	var buf []byte
	var r SensorReadMany
	names := map[string]string{"machine1": "machine1", "cpu": "cpu"}
	var interned []string
	intern := func(b []byte) string {
		interned = append(interned, string(b))
		return names[string(b)]
	}
	for _, want := range []*SensorReadMany{traced, plain} {
		var err error
		if buf, err = AppendSensorReadMany(buf[:0], want); err != nil {
			t.Fatal(err)
		}
		if string(buf) != layouts[want] {
			t.Errorf("AppendSensorReadMany = %x, want %x", buf, layouts[want])
		}
		if err := UnmarshalSensorReadManyInto(&r, buf, intern); err != nil || !reflect.DeepEqual(r, *want) {
			t.Errorf("UnmarshalSensorReadManyInto = %+v, %v; want %+v", r, err, *want)
		}
	}
	if got := strings.Join(interned, ","); got != "machine1,cpu,machine1,cpu" {
		t.Errorf("intern saw %s, want machine then node per read", got)
	}

	var rep SensorReplyMany
	var out []byte
	hit := func(b []byte) string { return names[string(b)] }
	if n := testing.AllocsPerRun(100, func() {
		buf, _ = AppendSensorReadMany(buf[:0], traced)
		_ = UnmarshalSensorReadManyInto(&r, buf, hit)
		buf, _ = AppendSensorReadMany(buf[:0], plain)
		_ = UnmarshalSensorReadManyInto(&r, buf, hit)
		out, _ = AppendSensorReplyMany(out[:0], &SensorReplyMany{Status: StatusOK, Temps: []units.Celsius{41}})
		_ = UnmarshalSensorReplyManyInto(&rep, out)
	}); n != 0 {
		t.Errorf("sensor scratch codecs: %v allocs/op, want 0", n)
	}
	if !r.Trace.Zero() {
		t.Errorf("reused request = %+v, want its trace reset", r)
	}
	if rep.Status != StatusOK || len(rep.Temps) != 1 || rep.Temps[0] != 41 {
		t.Errorf("reused reply = %+v", rep)
	}
	// An over-long message is clipped, not refused: the reply that
	// reports a failure must always go out.
	out, err := AppendSensorReplyMany(out[:0], &SensorReplyMany{Status: StatusUnknown, Message: strings.Repeat("x", 256)})
	if err != nil {
		t.Fatalf("oversized message: %v", err)
	}
	if err := UnmarshalSensorReplyManyInto(&rep, out); err != nil || rep.Message != strings.Repeat("x", 255) {
		t.Errorf("oversized message decodes as %d bytes, %v; want the first 255", len(rep.Message), err)
	}
}
