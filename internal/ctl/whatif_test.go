package ctl

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/surrogate"
	"github.com/darklab/mercury/internal/wire"
)

// echoWhatIf fakes a daemon's what-if handler: it validates names the
// way the solver would and reflects the fallback flag into the answer
// source so tests can observe it.
func echoWhatIf(q *surrogate.Query, fallback bool) (*surrogate.Answer, error) {
	for _, m := range q.PowerOff {
		if m != "machine1" {
			return nil, fmt.Errorf("what-if: %w", &solver.ErrUnknown{Kind: "machine", Name: m})
		}
	}
	for _, u := range q.SetUtil {
		if u.Value < 0 || u.Value > 1 {
			return nil, fmt.Errorf("what-if: utilization %v out of range", u.Value)
		}
	}
	src := "surrogate"
	if fallback {
		src = "kernel"
	}
	return &surrogate.Answer{Valid: true, Source: src, MaxTemp: 42}, nil
}

func TestWhatIfHandler(t *testing.T) {
	srv := New(WithWhatIf(echoWhatIf))
	cases := []struct {
		name   string
		method string
		body   string
		status int
		source string // expected answer source, "" to skip
	}{
		{"valid_default_fallback", "POST", `{"power_off":["machine1"]}`, 200, "kernel"},
		{"valid_no_fallback", "POST", `{"power_off":["machine1"],"fallback":false}`, 200, "surrogate"},
		{"unknown_machine", "POST", `{"power_off":["nope"]}`, 404, ""},
		{"invalid_value", "POST", `{"set_util":[{"machine":"machine1","source":"cpu","value":7}]}`, 400, ""},
		{"malformed_json", "POST", `{"power_off":`, 400, ""},
		{"unknown_field", "POST", `{"power_off":["machine1"],"bogus":1}`, 400, ""},
		{"trailing_garbage", "POST", `{"power_off":["machine1"]} extra`, 400, ""},
		{"wrong_method", "GET", "", 405, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := httptest.NewRecorder()
			srv.mux.ServeHTTP(rr, httptest.NewRequest(tc.method, "/whatif", strings.NewReader(tc.body)))
			if rr.Code != tc.status {
				t.Fatalf("status = %d, want %d (body %q)", rr.Code, tc.status, rr.Body.String())
			}
			if tc.source != "" {
				var ans surrogate.Answer
				if err := json.Unmarshal(rr.Body.Bytes(), &ans); err != nil {
					t.Fatalf("bad answer JSON: %v", err)
				}
				if ans.Source != tc.source || ans.MaxTemp != 42 {
					t.Fatalf("answer = %+v, want source %s", ans, tc.source)
				}
			}
		})
	}
}

func TestWhatIfWithoutHandler(t *testing.T) {
	srv := New()
	rr := httptest.NewRecorder()
	srv.mux.ServeHTTP(rr, httptest.NewRequest("POST", "/whatif", strings.NewReader(`{}`)))
	if rr.Code != 404 {
		t.Fatalf("status = %d, want 404 with no handler attached", rr.Code)
	}
}

func TestFiddleStrictBody(t *testing.T) {
	srv := New(WithFiddle(func(op *wire.FiddleOp) error {
		if len(op.Strings) > 0 && op.Strings[0] == "ghost" {
			return fmt.Errorf("fiddle: %w", &solver.ErrUnknown{Kind: "machine", Name: "ghost"})
		}
		return nil
	}))
	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"valid", `{"op":"pin-inlet","strings":["m1"],"floats":[21]}`, 200},
		{"unknown_machine", `{"op":"pin-inlet","strings":["ghost"],"floats":[21]}`, 404},
		{"unknown_field", `{"op":"pin-inlet","strings":["m1"],"floats":[21],"bogus":true}`, 400},
		{"trailing_garbage", `{"op":"pin-inlet","strings":["m1"],"floats":[21]}{}`, 400},
		{"malformed", `{"op":`, 400},
		{"unknown_op", `{"op":"warp-core","strings":[],"floats":[]}`, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := httptest.NewRecorder()
			srv.mux.ServeHTTP(rr, httptest.NewRequest("POST", "/fiddle", strings.NewReader(tc.body)))
			if rr.Code != tc.status {
				t.Fatalf("status = %d, want %d (body %q)", rr.Code, tc.status, rr.Body.String())
			}
		})
	}
}
