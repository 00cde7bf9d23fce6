package ctl

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/telemetry"
	"github.com/darklab/mercury/internal/wire"
)

func newTestServer(t *testing.T) (*Server, *telemetry.Registry, *telemetry.EventLog, *[]*wire.FiddleOp) {
	t.Helper()
	reg := telemetry.NewRegistry()
	log := telemetry.NewEventLog(16, nil)
	var applied []*wire.FiddleOp
	srv := New(
		WithRegistry(reg),
		WithEvents(log),
		WithState(func() any { return map[string]any{"machine": "m1", "temp": 42.5} }),
		WithFiddle(func(op *wire.FiddleOp) error {
			if op.Strings[0] == "nope" {
				return fmt.Errorf("no such machine")
			}
			applied = append(applied, op)
			return nil
		}),
	)
	return srv, reg, log, &applied
}

func TestHealthz(t *testing.T) {
	srv, _, _, _ := newTestServer(t)
	rr := httptest.NewRecorder()
	srv.mux.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), "ok") {
		t.Errorf("healthz = %d %q", rr.Code, rr.Body.String())
	}
}

func TestMetrics(t *testing.T) {
	srv, reg, _, _ := newTestServer(t)
	steps := reg.Counter("mercury_solver_steps_total", "steps")
	for i := 0; i < 7; i++ {
		steps.Inc()
	}
	rr := httptest.NewRecorder()
	srv.mux.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("metrics status = %d", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "mercury_solver_steps_total 7") {
		t.Errorf("metrics body missing counter:\n%s", rr.Body.String())
	}
	if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics content-type = %q", ct)
	}
}

func TestState(t *testing.T) {
	srv, _, _, _ := newTestServer(t)
	rr := httptest.NewRecorder()
	srv.mux.ServeHTTP(rr, httptest.NewRequest("GET", "/state", nil))
	if rr.Code != 200 {
		t.Fatalf("state status = %d", rr.Code)
	}
	var got map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatalf("state not JSON: %v", err)
	}
	if got["machine"] != "m1" || got["temp"] != 42.5 {
		t.Errorf("state = %v", got)
	}
}

func TestStateWithoutProvider(t *testing.T) {
	srv := New()
	rr := httptest.NewRecorder()
	srv.mux.ServeHTTP(rr, httptest.NewRequest("GET", "/state", nil))
	if rr.Code != 404 {
		t.Errorf("state without provider = %d, want 404", rr.Code)
	}
}

func TestEventsJSON(t *testing.T) {
	srv, _, log, _ := newTestServer(t)
	log.Emit(telemetry.EvEmergencyRaised, "m1", "cpu", 67, "")
	log.Emit(telemetry.EvEmergencyCleared, "m1", "", 0, "")
	rr := httptest.NewRecorder()
	srv.mux.ServeHTTP(rr, httptest.NewRequest("GET", "/events?format=json", nil))
	var events []telemetry.Event
	if err := json.Unmarshal(rr.Body.Bytes(), &events); err != nil {
		t.Fatalf("events not JSON: %v\n%s", err, rr.Body.String())
	}
	if len(events) != 2 || events[0].Type != telemetry.EvEmergencyRaised {
		t.Errorf("events = %+v", events)
	}
	// Replay from a sequence point.
	rr = httptest.NewRecorder()
	srv.mux.ServeHTTP(rr, httptest.NewRequest("GET", "/events?format=json&from=1", nil))
	if err := json.Unmarshal(rr.Body.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Type != telemetry.EvEmergencyCleared {
		t.Errorf("events from=1 = %+v", events)
	}
}

func TestEventsSSE(t *testing.T) {
	srv, _, log, _ := newTestServer(t)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	log.Emit(telemetry.EvEmergencyRaised, "m1", "cpu", 67, "")

	resp, err := http.Get("http://" + addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}

	// Emit a live event after the stream is open.
	go func() {
		time.Sleep(50 * time.Millisecond)
		log.Emit(telemetry.EvRelease, "m1", "", 0, "")
	}()

	sc := bufio.NewScanner(resp.Body)
	var ids, types []string
	deadline := time.After(5 * time.Second)
	for len(types) < 2 {
		lineCh := make(chan string, 1)
		go func() {
			if sc.Scan() {
				lineCh <- sc.Text()
			} else {
				close(lineCh)
			}
		}()
		select {
		case <-deadline:
			t.Fatalf("timed out; ids=%v types=%v", ids, types)
		case line, ok := <-lineCh:
			if !ok {
				t.Fatalf("stream closed early; ids=%v types=%v", ids, types)
			}
			if strings.HasPrefix(line, "id: ") {
				ids = append(ids, strings.TrimPrefix(line, "id: "))
			}
			if strings.HasPrefix(line, "event: ") {
				types = append(types, strings.TrimPrefix(line, "event: "))
			}
		}
	}
	if ids[0] != "1" || types[0] != "emergency-raised" {
		t.Errorf("first event id=%s type=%s", ids[0], types[0])
	}
	if types[1] != "release" {
		t.Errorf("second event type=%s", types[1])
	}
}

// TestEventsSSEWraparoundReplay pins the replay semantics at the
// ring-buffer boundary: when ?from= points at events the log has
// already dropped, the stream resumes at the oldest retained event
// instead of erroring or repeating.
func TestEventsSSEWraparoundReplay(t *testing.T) {
	log := telemetry.NewEventLog(4, nil)
	srv := New(WithEvents(log))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Overflow the ring: seqs 1..10 emitted, only 7..10 retained.
	for i := 0; i < 10; i++ {
		log.Emit(telemetry.EvPDOutput, fmt.Sprintf("m%d", i+1), "", float64(i), "")
	}

	resp, err := http.Get("http://" + addr + "/events?from=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	var ids []string
	deadline := time.After(5 * time.Second)
	for len(ids) < 4 {
		lineCh := make(chan string, 1)
		go func() {
			if sc.Scan() {
				lineCh <- sc.Text()
			} else {
				close(lineCh)
			}
		}()
		select {
		case <-deadline:
			t.Fatalf("timed out; ids=%v", ids)
		case line, ok := <-lineCh:
			if !ok {
				t.Fatalf("stream closed early; ids=%v", ids)
			}
			if strings.HasPrefix(line, "id: ") {
				ids = append(ids, strings.TrimPrefix(line, "id: "))
			}
		}
	}
	if want := []string{"7", "8", "9", "10"}; !equalStrings(ids, want) {
		t.Errorf("replay across wraparound = %v, want %v (oldest retained first, no repeats)", ids, want)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSpans(t *testing.T) {
	clk := clock.NewVirtual()
	tr := causal.NewTracer(16, clk)
	srv := New(WithTracer(tr))

	id := tr.NewTrace("m1")
	tr.Emit(causal.Span{Trace: id, Kind: causal.KindEmergency, Machine: "m1"})
	tr.Emit(causal.Span{Trace: id, Kind: causal.KindRecovery, Machine: "m1"})

	rr := httptest.NewRecorder()
	srv.mux.ServeHTTP(rr, httptest.NewRequest("GET", "/spans", nil))
	if rr.Code != 200 {
		t.Fatalf("spans status = %d", rr.Code)
	}
	var spans []causal.Span
	if err := json.Unmarshal(rr.Body.Bytes(), &spans); err != nil {
		t.Fatalf("spans not JSON: %v\n%s", err, rr.Body.String())
	}
	if len(spans) != 2 || spans[0].Kind != causal.KindEmergency || spans[0].Trace != id {
		t.Errorf("spans = %+v", spans)
	}

	// Incremental poll: only spans past the cursor.
	rr = httptest.NewRecorder()
	srv.mux.ServeHTTP(rr, httptest.NewRequest("GET", "/spans?from=1", nil))
	if err := json.Unmarshal(rr.Body.Bytes(), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || spans[0].Kind != causal.KindRecovery {
		t.Errorf("spans from=1 = %+v", spans)
	}

	// A caught-up cursor yields an empty array, not null.
	rr = httptest.NewRecorder()
	srv.mux.ServeHTTP(rr, httptest.NewRequest("GET", "/spans?from=99", nil))
	if body := strings.TrimSpace(rr.Body.String()); body != "[]" {
		t.Errorf("caught-up spans body = %q, want []", body)
	}

	if rr := getCode(srv, "/spans?from=x"); rr != 400 {
		t.Errorf("bad from = %d, want 400", rr)
	}
	if rr := getCode(New(), "/spans"); rr != 404 {
		t.Errorf("spans without tracer = %d, want 404", rr)
	}
}

func TestPprofOptIn(t *testing.T) {
	if code := getCode(New(), "/debug/pprof/"); code != 404 {
		t.Errorf("pprof without opt-in = %d, want 404", code)
	}
	srv := New(WithPprof())
	rr := httptest.NewRecorder()
	srv.mux.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), "goroutine") {
		t.Errorf("pprof index = %d %q", rr.Code, rr.Body.String())
	}
}

func getCode(srv *Server, path string) int {
	rr := httptest.NewRecorder()
	srv.mux.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	return rr.Code
}

func TestFiddle(t *testing.T) {
	srv, _, _, applied := newTestServer(t)

	post := func(body string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/fiddle", strings.NewReader(body))
		srv.mux.ServeHTTP(rr, req)
		return rr
	}

	rr := post(`{"op":"pin-inlet","strings":["m1"],"floats":[40]}`)
	if rr.Code != 200 {
		t.Fatalf("fiddle = %d %s", rr.Code, rr.Body.String())
	}
	if len(*applied) != 1 || (*applied)[0].Op != wire.OpPinInlet || (*applied)[0].Floats[0] != 40 {
		t.Errorf("applied = %+v", *applied)
	}

	if rr := post(`{"op":"warp-core-breach","strings":[],"floats":[]}`); rr.Code != 400 {
		t.Errorf("unknown op = %d, want 400", rr.Code)
	}
	if rr := post(`{"op":"pin-inlet","strings":[],"floats":[]}`); rr.Code != 400 {
		t.Errorf("bad shape = %d, want 400", rr.Code)
	}
	if rr := post(`{"op":"pin-inlet","strings":["nope"],"floats":[40]}`); rr.Code != 422 {
		t.Errorf("rejected op = %d, want 422", rr.Code)
	}

	rr = httptest.NewRecorder()
	srv.mux.ServeHTTP(rr, httptest.NewRequest("GET", "/fiddle", nil))
	if rr.Code != 405 {
		t.Errorf("GET /fiddle = %d, want 405", rr.Code)
	}
}

func TestStartAndClose(t *testing.T) {
	srv, reg, _, _ := newTestServer(t)
	reg.Counter("up_total", "").Inc()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("live metrics = %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("server still answering after Close")
	}
}

// TestParseFrom pins the ?from= parser: plain decimals only, empty
// means zero — the forms Sscanf used to let through must now fail.
func TestParseFrom(t *testing.T) {
	good := map[string]uint64{
		"":                     0,
		"0":                    0,
		"7":                    7,
		"18446744073709551615": 1<<64 - 1,
	}
	for in, want := range good {
		got, err := parseFrom(in)
		if err != nil || got != want {
			t.Errorf("parseFrom(%q) = (%d, %v), want (%d, nil)", in, got, err, want)
		}
	}
	bad := []string{"-1", "+2", "12abc", "0x10", " 3", "18446744073709551616", "3.5"}
	for _, in := range bad {
		if got, err := parseFrom(in); err == nil {
			t.Errorf("parseFrom(%q) = %d, want error", in, got)
		}
	}
}

// TestEventsBadFrom checks both endpoints reject a malformed from
// parameter with 400 instead of silently starting at zero.
func TestEventsBadFrom(t *testing.T) {
	s, _, _, _ := newTestServer(t)
	ts := New(WithTracer(causal.NewTracer(16, clock.NewVirtual())))
	for srv, path := range map[*Server]string{
		s:  "/events?format=json&from=12abc",
		ts: "/spans?from=-1",
	} {
		req := httptest.NewRequest("GET", path, nil)
		rec := httptest.NewRecorder()
		srv.mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", path, rec.Code)
		}
	}
}

// TestAlertsNotFound: /alerts is 404 when no engine is attached.
func TestAlertsNotFound(t *testing.T) {
	srv := New()
	rec := httptest.NewRecorder()
	srv.mux.ServeHTTP(rec, httptest.NewRequest("GET", "/alerts", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET /alerts with no engine = %d, want 404", rec.Code)
	}
}

// TestAlertsJSONSnapshot: ?format=json returns the engine snapshot
// from the state func, not the transition stream.
func TestAlertsJSONSnapshot(t *testing.T) {
	transitions := telemetry.NewEventLog(16, nil)
	srv := New(WithAlerts(func() any {
		return map[string]any{"rules": 9, "firing": 1}
	}, transitions))
	rec := httptest.NewRecorder()
	srv.mux.ServeHTTP(rec, httptest.NewRequest("GET", "/alerts?format=json", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /alerts?format=json = %d", rec.Code)
	}
	var snap map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap["rules"] != float64(9) || snap["firing"] != float64(1) {
		t.Errorf("snapshot = %v", snap)
	}
}

// TestAlertsSSEWraparoundReplay mirrors TestEventsSSEWraparoundReplay
// for the /alerts stream: a client resuming from a sequence number
// that has already been evicted from the transitions ring gets the
// oldest retained transition first, no repeats, no gaps it could have
// avoided.
func TestAlertsSSEWraparoundReplay(t *testing.T) {
	transitions := telemetry.NewEventLog(4, nil)
	srv := New(WithAlerts(func() any { return nil }, transitions))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Overflow the ring: seqs 1..10 emitted, only 7..10 retained.
	for i := 0; i < 10; i++ {
		transitions.Emit(telemetry.EvAlertFiring, fmt.Sprintf("m%d", i+1), "cpu", float64(i), "high-temp")
	}

	resp, err := http.Get("http://" + addr + "/alerts?from=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	var ids []string
	deadline := time.After(5 * time.Second)
	for len(ids) < 4 {
		lineCh := make(chan string, 1)
		go func() {
			if sc.Scan() {
				lineCh <- sc.Text()
			} else {
				close(lineCh)
			}
		}()
		select {
		case <-deadline:
			t.Fatalf("timed out; ids=%v", ids)
		case line, ok := <-lineCh:
			if !ok {
				t.Fatalf("stream closed early; ids=%v", ids)
			}
			if strings.HasPrefix(line, "id: ") {
				ids = append(ids, strings.TrimPrefix(line, "id: "))
			}
		}
	}
	if want := []string{"7", "8", "9", "10"}; !equalStrings(ids, want) {
		t.Errorf("alert replay across wraparound = %v, want %v", ids, want)
	}
}
