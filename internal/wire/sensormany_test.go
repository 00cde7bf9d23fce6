package wire

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/darklab/mercury/internal/units"
)

// TestSensorReadManyLayout pins the request and both reply forms byte
// for byte.
func TestSensorReadManyLayout(t *testing.T) {
	req, err := AppendSensorReadMany(nil, &SensorReadMany{Probes: []Probe{{"m1", "cpu"}, {"m2", "disk"}}})
	if err != nil {
		t.Fatal(err)
	}
	if want := "\x01\x0a\x02\x02m1\x03cpu\x02m2\x04disk"; string(req) != want {
		t.Errorf("request = %q, want %q", req, want)
	}
	ok, err := AppendSensorReplyMany(nil, &SensorReplyMany{Status: StatusOK, Temps: []units.Celsius{1, -2}})
	if err != nil {
		t.Fatal(err)
	}
	if want := "\x01\x0b\x00\x02\x3f\xf0\x00\x00\x00\x00\x00\x00\xc0\x00\x00\x00\x00\x00\x00\x00"; string(ok) != want {
		t.Errorf("OK reply = %q, want %q", ok, want)
	}
	bad, err := AppendSensorReplyMany(nil, &SensorReplyMany{Status: StatusUnknown, Failed: 5, Message: "no"})
	if err != nil {
		t.Fatal(err)
	}
	if want := "\x01\x0b\x01\x00\x05\x02no"; string(bad) != want {
		t.Errorf("failure reply = %q, want %q", bad, want)
	}
}

func manyProbes(n, nameLen int) []Probe {
	ps := make([]Probe, n)
	for i := range ps {
		m := fmt.Sprintf("machine%d", i+1)
		if nameLen > len(m) {
			m += strings.Repeat("x", nameLen-len(m))
		}
		ps[i] = Probe{Machine: m, Node: "cpu"}
	}
	return ps
}

// TestSensorReadManyLimits: a request carries 1..MaxSensorProbes
// probes in at most MaxSensorReadManySize bytes, and its OK reply
// fits MaxReplySize; SensorReadManyFit cuts at whichever limit comes
// first.
func TestSensorReadManyLimits(t *testing.T) {
	if MaxSensorProbes != 63 {
		t.Fatalf("MaxSensorProbes = %d, want 63", MaxSensorProbes)
	}
	temps := make([]units.Celsius, MaxSensorProbes)
	rep, err := AppendSensorReplyMany(nil, &SensorReplyMany{Status: StatusOK, Temps: temps})
	if err != nil || len(rep) > MaxReplySize {
		t.Fatalf("full reply: %d bytes, %v; want <= %d", len(rep), err, MaxReplySize)
	}
	if _, err := AppendSensorReplyMany(nil, &SensorReplyMany{Status: StatusOK, Temps: append(temps, 0)}); !errors.Is(err, ErrTooManyProbes) {
		t.Errorf("64-temperature reply: err = %v, want ErrTooManyProbes", err)
	}
	if _, err := AppendSensorReplyMany(nil, &SensorReplyMany{Status: StatusOK}); !errors.Is(err, ErrNoProbes) {
		t.Errorf("empty OK reply: err = %v, want ErrNoProbes", err)
	}
	if _, err := AppendSensorReadMany(nil, &SensorReadMany{}); !errors.Is(err, ErrNoProbes) {
		t.Errorf("empty request: err = %v, want ErrNoProbes", err)
	}
	if _, err := AppendSensorReadMany(nil, &SensorReadMany{Probes: manyProbes(64, 0)}); !errors.Is(err, ErrTooManyProbes) {
		t.Errorf("64-probe request: err = %v, want ErrTooManyProbes", err)
	}
	if _, err := AppendSensorReadMany(nil, &SensorReadMany{Probes: manyProbes(10, 250)}); err == nil {
		t.Error("a 2.5 KiB request encoded; want a size error")
	}
	if _, err := AppendSensorReadMany(nil, &SensorReadMany{Probes: []Probe{{strings.Repeat("m", 256), "cpu"}}}); !errors.Is(err, ErrStringSize) {
		t.Errorf("256-byte machine: err = %v, want ErrStringSize", err)
	}

	for _, tc := range []struct {
		probes []Probe
		want   int
	}{
		{nil, 0},
		{manyProbes(1, 0), 1},
		{manyProbes(62, 0), 62},
		{manyProbes(63, 0), 63},
		{manyProbes(64, 0), 63},
		{manyProbes(127, 0), 63},
		// 8 probes of 2+250+3 bytes are 2043 bytes with the header;
		// a ninth does not fit.
		{manyProbes(20, 250), 8},
		// One probe always goes, so a sender makes progress; the
		// encoder then judges it.
		{[]Probe{{strings.Repeat("m", 3000), "cpu"}, {"m", "cpu"}}, 1},
	} {
		n := SensorReadManyFit(tc.probes)
		if n != tc.want {
			t.Errorf("SensorReadManyFit(%d probes of %d bytes) = %d, want %d", len(tc.probes), probeLen(tc.probes), n, tc.want)
			continue
		}
		if n == 0 || len(tc.probes[0].Machine) > 255 {
			continue
		}
		buf, err := AppendSensorReadMany(nil, &SensorReadMany{Probes: tc.probes[:n]})
		if err != nil || len(buf) > MaxSensorReadManySize {
			t.Errorf("fitted chunk of %d: %d bytes, %v", n, len(buf), err)
		}
	}
}

func probeLen(ps []Probe) int {
	if len(ps) == 0 {
		return 0
	}
	return len(ps[0].Machine) + len(ps[0].Node)
}

// TestSensorReadManyRoundTrip: the append and into forms round-trip,
// reuse their storage, and — with interned names — allocate nothing.
func TestSensorReadManyRoundTrip(t *testing.T) {
	probes := manyProbes(MaxSensorProbes, 0)
	names := map[string]string{"cpu": "cpu"}
	for _, p := range probes {
		names[p.Machine] = p.Machine
	}
	intern := func(b []byte) string { return names[string(b)] }
	var buf []byte
	var req SensorReadMany
	var err error
	if buf, err = AppendSensorReadMany(buf, &SensorReadMany{Probes: probes}); err != nil {
		t.Fatal(err)
	}
	if err := UnmarshalSensorReadManyInto(&req, buf, intern); err != nil {
		t.Fatal(err)
	}
	if len(req.Probes) != len(probes) {
		t.Fatalf("decoded %d probes, want %d", len(req.Probes), len(probes))
	}
	for i := range probes {
		if req.Probes[i] != probes[i] {
			t.Fatalf("probe %d = %+v, want %+v", i, req.Probes[i], probes[i])
		}
	}
	temps := make([]units.Celsius, len(probes))
	for i := range temps {
		temps[i] = units.Celsius(20 + float64(i)/7)
	}
	var out []byte
	var rep SensorReplyMany
	out, _ = AppendSensorReplyMany(out, &SensorReplyMany{Status: StatusOK, Temps: temps})
	if err := UnmarshalSensorReplyManyInto(&rep, out); err != nil {
		t.Fatal(err)
	}
	for i := range temps {
		if rep.Temps[i] != temps[i] {
			t.Fatalf("temp %d = %v, want %v", i, rep.Temps[i], temps[i])
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		buf, _ = AppendSensorReadMany(buf[:0], &SensorReadMany{Probes: probes})
		_ = UnmarshalSensorReadManyInto(&req, buf, intern)
		out, _ = AppendSensorReplyMany(out[:0], &SensorReplyMany{Status: StatusOK, Temps: temps})
		_ = UnmarshalSensorReplyManyInto(&rep, out)
	}); n != 0 {
		t.Errorf("many-read codecs: %v allocs/op, want 0", n)
	}

	// A failure reply resets the temperatures a previous reply left.
	out, _ = AppendSensorReplyMany(out[:0], &SensorReplyMany{Status: StatusUnknown, Failed: 62, Message: "gone"})
	if err := UnmarshalSensorReplyManyInto(&rep, out); err != nil {
		t.Fatal(err)
	}
	if rep.Status != StatusUnknown || len(rep.Temps) != 0 || rep.Failed != 62 || rep.Message != "gone" {
		t.Errorf("failure reply = %+v", rep)
	}
}

// TestSensorReadManyRejects: every malformed datagram gets a typed
// error, never a partial decode.
func TestSensorReadManyRejects(t *testing.T) {
	good, _ := AppendSensorReadMany(nil, &SensorReadMany{Probes: []Probe{{"m1", "cpu"}}})
	var req SensorReadMany
	for name, tc := range map[string]struct {
		buf  []byte
		want error
	}{
		"traced version": {append([]byte{VersionTrace}, good[1:]...), ErrBadVersion},
		"wrong type":     {append([]byte{Version, MsgSensorRead}, good[2:]...), ErrBadType},
		"zero probes":    {[]byte{Version, MsgSensorReadMany, 0}, ErrNoProbes},
		"64 probes":      {[]byte{Version, MsgSensorReadMany, 64}, ErrTooManyProbes},
		"truncated":      {good[:len(good)-1], ErrShort},
		"trailing":       {append(append([]byte(nil), good...), 0), ErrTrailingBytes},
		"oversize":       {append(append([]byte(nil), good...), make([]byte, MaxSensorReadManySize)...), ErrOversize},
	} {
		if err := UnmarshalSensorReadManyInto(&req, tc.buf, nil); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
	}
	okRep, _ := AppendSensorReplyMany(nil, &SensorReplyMany{Status: StatusOK, Temps: []units.Celsius{1}})
	var rep SensorReplyMany
	for name, tc := range map[string]struct {
		buf  []byte
		want error
	}{
		"empty OK":          {[]byte{Version, MsgSensorReplyMany, StatusOK, 0}, ErrNoProbes},
		"64 temps":          {[]byte{Version, MsgSensorReplyMany, StatusOK, 64}, ErrTooManyProbes},
		"short temps":       {okRep[:len(okRep)-1], ErrShort},
		"trailing":          {append(append([]byte(nil), okRep...), 0), ErrTrailingBytes},
		"failure with temp": {[]byte{Version, MsgSensorReplyMany, StatusUnknown, 1, 0, 0}, ErrBadFailure},
		"failure index 63":  {[]byte{Version, MsgSensorReplyMany, StatusUnknown, 0, 63, 0}, ErrBadFailure},
		"failure no text":   {[]byte{Version, MsgSensorReplyMany, StatusUnknown, 0, 1}, ErrShort},
	} {
		if err := UnmarshalSensorReplyManyInto(&rep, tc.buf); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
	}
	for _, r := range []SensorReplyMany{
		{Status: StatusUnknown, Temps: []units.Celsius{1}},
		{Status: StatusUnknown, Failed: -1},
		{Status: StatusUnknown, Failed: MaxSensorProbes},
	} {
		if _, err := AppendSensorReplyMany(nil, &r); !errors.Is(err, ErrBadFailure) {
			t.Errorf("encode %+v: err = %v, want ErrBadFailure", r, err)
		}
	}
}

// TestReplyMessagesClip: every reply carrying an error text clips it
// to a wire string at a UTF-8 boundary rather than failing to encode,
// so an over-long unknown name still gets its answer.
func TestReplyMessagesClip(t *testing.T) {
	for _, tc := range []struct{ msg, want string }{
		{strings.Repeat("x", 300), strings.Repeat("x", 255)},
		// A 3-byte rune at bytes 254-256 straddles the limit: it goes
		// whole, and the text stays valid UTF-8.
		{strings.Repeat("a", 254) + "€" + strings.Repeat("b", 40), strings.Repeat("a", 254)},
		{strings.Repeat("y", 255), strings.Repeat("y", 255)},
	} {
		sr, err := AppendSensorReply(nil, &SensorReply{Status: StatusUnknown, Message: tc.msg})
		if err != nil {
			t.Fatal(err)
		}
		var srep SensorReply
		if err := UnmarshalSensorReplyInto(&srep, sr); err != nil || srep.Message != tc.want {
			t.Errorf("sensor reply message = %d bytes, %v; want %d", len(srep.Message), err, len(tc.want))
		}
		fr, err := AppendFiddleReply(nil, &FiddleReply{Status: StatusUnknown, Message: tc.msg})
		if err != nil {
			t.Fatal(err)
		}
		if frep, err := UnmarshalFiddleReply(fr); err != nil || frep.Message != tc.want {
			t.Errorf("fiddle reply = %v, %v; want a %d-byte message", frep, err, len(tc.want))
		}
		mr, err := AppendSensorReplyMany(nil, &SensorReplyMany{Status: StatusUnknown, Failed: 3, Message: tc.msg})
		if err != nil {
			t.Fatal(err)
		}
		var mrep SensorReplyMany
		if err := UnmarshalSensorReplyManyInto(&mrep, mr); err != nil || mrep.Message != tc.want || mrep.Failed != 3 {
			t.Errorf("many-read reply = %d bytes at %d, %v; want %d", len(mrep.Message), mrep.Failed, err, len(tc.want))
		}
	}
}
