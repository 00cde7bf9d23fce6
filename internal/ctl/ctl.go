// Package ctl is the HTTP control plane embedded in every Mercury
// daemon. It serves the daemon's telemetry registry and event log and
// accepts the same fiddle operations as the UDP wire path:
//
//	GET  /healthz  — liveness probe ("ok\n")
//	GET  /metrics  — Prometheus text exposition of the registry
//	GET  /state    — JSON snapshot supplied by the daemon
//	GET  /events   — thermal event log; SSE stream by default
//	                 (?from=<seq> replays retained events first),
//	                 one JSON array with ?format=json
//	GET  /alerts   — alert-transition stream from the daemon's alert
//	                 engine; SSE by default (?from=<seq> replays
//	                 retained transitions first), full engine snapshot
//	                 with ?format=json; 404 unless the daemon attached
//	                 an engine (-alerts)
//	GET  /spans    — causal-trace span ring as a JSON array
//	                 (?from=<seq> returns spans emitted after seq);
//	                 404 unless the daemon attached a tracer
//	POST /fiddle   — JSON fiddle op {"op":"pin-inlet","strings":[...],
//	                 "floats":[...]}, applied through the daemon's
//	                 fiddle handler
//	POST /whatif   — surrogate steady-state query (see
//	                 internal/surrogate.Query; "fallback":false disables
//	                 the kernel fallback); 404 unless the daemon
//	                 attached a what-if handler
//
// Request bodies are decoded strictly: unknown fields and trailing
// data are 400s, and fiddle/what-if references to machines or nodes
// the model doesn't have are 404s.
//
// With WithPprof the standard net/http/pprof profiles additionally
// appear under /debug/pprof/ (opt-in via each daemon's -pprof flag).
//
// A Server is cheap and optional: daemons only start one when given a
// -ctl address, and nothing on any hot path touches it. See
// docs/observability.md.
package ctl

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/surrogate"
	"github.com/darklab/mercury/internal/telemetry"
	"github.com/darklab/mercury/internal/wire"
)

// Option configures a Server.
type Option func(*Server)

// WithRegistry sets the metrics registry served at /metrics.
func WithRegistry(r *telemetry.Registry) Option {
	return func(s *Server) { s.reg = r }
}

// WithEvents sets the event log served at /events.
func WithEvents(l *telemetry.EventLog) Option {
	return func(s *Server) { s.events = l }
}

// WithState sets the snapshot function behind /state. fn is called
// per request and its result rendered as JSON; it must be safe for
// concurrent use.
func WithState(fn func() any) Option {
	return func(s *Server) { s.stateFn = fn }
}

// WithFiddle sets the handler behind POST /fiddle. fn receives a
// validated op and returns an error to reject it; it must be safe for
// concurrent use.
func WithFiddle(fn func(*wire.FiddleOp) error) Option {
	return func(s *Server) { s.fiddleFn = fn }
}

// WithWhatIf sets the handler behind POST /whatif. fn receives the
// decoded query plus whether the caller accepts a kernel fallback for
// declined queries, and returns the answer; it must be safe for
// concurrent use. Daemons embedding a surrogate pass a closure over
// Model.WhatIf (solverd serializes it against stepping).
func WithWhatIf(fn func(q *surrogate.Query, fallback bool) (*surrogate.Answer, error)) Option {
	return func(s *Server) { s.whatIfFn = fn }
}

// WithAlerts serves the daemon's alert engine at /alerts: state is
// called per ?format=json request (the engine snapshot), transitions
// is the engine's pending/firing/resolved event log streamed as SSE.
// Both must be safe for concurrent use (alert.Engine's are).
func WithAlerts(state func() any, transitions *telemetry.EventLog) Option {
	return func(s *Server) {
		s.alertFn = state
		s.alerts = transitions
	}
}

// WithTracer serves the daemon's causal-span ring at /spans.
func WithTracer(t *causal.Tracer) Option {
	return func(s *Server) { s.tracer = t }
}

// WithPprof mounts net/http/pprof under /debug/pprof/. Off by
// default: profiles expose internals, so daemons gate it behind an
// explicit -pprof flag.
func WithPprof() Option {
	return func(s *Server) { s.pprof = true }
}

// WithHandler mounts an extra handler on the server's mux — used by
// mercury-dash to add its aggregate endpoints to a standard control
// plane.
func WithHandler(pattern string, h http.Handler) Option {
	return func(s *Server) { s.extra = append(s.extra, mount{pattern, h}) }
}

type mount struct {
	pattern string
	handler http.Handler
}

// Server is one daemon's control plane.
type Server struct {
	reg      *telemetry.Registry
	events   *telemetry.EventLog
	stateFn  func() any
	fiddleFn func(*wire.FiddleOp) error
	whatIfFn func(*surrogate.Query, bool) (*surrogate.Answer, error)
	alertFn  func() any
	alerts   *telemetry.EventLog
	tracer   *causal.Tracer
	pprof    bool
	extra    []mount

	mux  *http.ServeMux
	hs   *http.Server
	ln   net.Listener
	done chan struct{}
}

// New builds a Server. Endpoints whose backing piece was not provided
// answer 404 (/state, /fiddle) or serve empty output (/metrics,
// /events against fresh defaults).
func New(opts ...Option) *Server {
	s := &Server{done: make(chan struct{})}
	for _, o := range opts {
		o(s)
	}
	if s.reg == nil {
		s.reg = telemetry.NewRegistry()
	}
	if s.events == nil {
		s.events = telemetry.NewEventLog(0, nil)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/state", s.handleState)
	s.mux.HandleFunc("/events", s.handleEvents)
	s.mux.HandleFunc("/alerts", s.handleAlerts)
	s.mux.HandleFunc("/spans", s.handleSpans)
	s.mux.HandleFunc("/fiddle", s.handleFiddle)
	s.mux.HandleFunc("/whatif", s.handleWhatIf)
	if s.pprof {
		// The server has its own mux, so the handlers pprof registers
		// on http.DefaultServeMux must be mounted by hand.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	for _, m := range s.extra {
		s.mux.Handle(m.pattern, m.handler)
	}
	return s
}

// Start listens on addr (e.g. "127.0.0.1:9090"; ":0" picks a free
// port) and serves in a background goroutine. It returns the bound
// address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("ctl: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.hs = &http.Server{Handler: s.mux}
	go func() {
		_ = s.hs.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

// Close stops the listener and drops active connections (including
// open SSE streams).
func (s *Server) Close() error {
	close(s.done)
	if s.hs != nil {
		return s.hs.Close()
	}
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	if s.stateFn == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.stateFn()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// parseFrom parses the ?from=<seq> query parameter shared by /events
// and /spans: empty means 0, anything but a plain decimal uint64 is an
// error. strconv.ParseUint rather than fmt.Sscanf — dash polls these
// endpoints continuously, and Sscanf's reflection costs ~26x more per
// parse (and quietly accepted "12abc" and negative signs).
func parseFrom(v string) (uint64, error) {
	if v == "" {
		return 0, nil
	}
	return strconv.ParseUint(v, 10, 64)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	from, err := parseFrom(r.URL.Query().Get("from"))
	if err != nil {
		http.Error(w, "ctl: bad from parameter", http.StatusBadRequest)
		return
	}
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.events.Since(from))
		return
	}
	s.streamEvents(w, r, s.events, from)
}

// handleAlerts serves the alert engine: ?format=json returns the
// engine's full snapshot (rules, instance states, transition
// timeline), the default is an SSE stream of state transitions with
// the same ?from= resume semantics as /events.
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	if s.alertFn == nil || s.alerts == nil {
		http.NotFound(w, r)
		return
	}
	from, err := parseFrom(r.URL.Query().Get("from"))
	if err != nil {
		http.Error(w, "ctl: bad from parameter", http.StatusBadRequest)
		return
	}
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s.alertFn()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	s.streamEvents(w, r, s.alerts, from)
}

// streamEvents serves an event log as Server-Sent Events: the
// retained backlog past `from` first, then live events until the
// client goes away. Event IDs are log sequence numbers, so a dropped
// client can resume with ?from=<last id>. Shared by /events and
// /alerts.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, log *telemetry.EventLog, from uint64) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "ctl: streaming unsupported", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ch, cancel := log.Subscribe(256)
	defer cancel()

	write := func(e telemetry.Event) bool {
		data, err := json.Marshal(e)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	last := from
	for _, e := range log.Since(from) {
		if !write(e) {
			return
		}
		last = e.Seq
	}

	keepalive := time.NewTicker(15 * time.Second)
	defer keepalive.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		case <-keepalive.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		case e := <-ch:
			// The subscription may overlap the backlog; skip repeats.
			if e.Seq <= last {
				continue
			}
			if !write(e) {
				return
			}
			last = e.Seq
		}
	}
}

// handleSpans serves the span ring as JSON. Unlike /events it has no
// streaming mode: mercury-dash polls it with ?from=<seq>, which is
// cheap because Since copies only spans newer than seq.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		http.NotFound(w, r)
		return
	}
	from, err := parseFrom(r.URL.Query().Get("from"))
	if err != nil {
		http.Error(w, "ctl: bad from parameter", http.StatusBadRequest)
		return
	}
	spans := s.tracer.Since(from)
	if spans == nil {
		spans = []causal.Span{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(spans); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// fiddleRequest is the POST /fiddle body: the op by name (as printed
// by wire.OpName) plus its arguments.
type fiddleRequest struct {
	Op      string    `json:"op"`
	Strings []string  `json:"strings"`
	Floats  []float64 `json:"floats"`
}

type fiddleResponse struct {
	Status  string `json:"status"`
	Message string `json:"message,omitempty"`
}

func (s *Server) handleFiddle(w http.ResponseWriter, r *http.Request) {
	if s.fiddleFn == nil {
		http.NotFound(w, r)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "ctl: POST only", http.StatusMethodNotAllowed)
		return
	}
	var req fiddleRequest
	if err := decodeStrict(r, &req); err != nil {
		writeFiddle(w, http.StatusBadRequest, "error", "bad JSON: "+err.Error())
		return
	}
	code, ok := wire.OpCode(req.Op)
	if !ok {
		writeFiddle(w, http.StatusBadRequest, "error", "unknown op "+req.Op)
		return
	}
	op := &wire.FiddleOp{Op: code, Strings: req.Strings, Floats: req.Floats}
	if err := wire.ValidateFiddle(op); err != nil {
		writeFiddle(w, http.StatusBadRequest, "error", err.Error())
		return
	}
	if err := s.fiddleFn(op); err != nil {
		// A name the model simply doesn't have is the client's lookup
		// miss, not an invalid op.
		var unknown *solver.ErrUnknown
		if errors.As(err, &unknown) {
			writeFiddle(w, http.StatusNotFound, "error", err.Error())
			return
		}
		writeFiddle(w, http.StatusUnprocessableEntity, "error", err.Error())
		return
	}
	writeFiddle(w, http.StatusOK, "ok", "")
}

// decodeStrict decodes a request body rejecting unknown fields and
// trailing garbage — a typo'd field name in an op that would otherwise
// quietly no-op is almost certainly a bug in the caller.
func decodeStrict(r *http.Request, dst any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON body")
	}
	return nil
}

// whatIfRequest is the POST /whatif body: a surrogate query plus
// whether a declined query may fall back to the real kernel (default
// true — callers that only want the microsecond path set it false).
type whatIfRequest struct {
	surrogate.Query
	Fallback *bool `json:"fallback"`
}

func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	if s.whatIfFn == nil {
		http.NotFound(w, r)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "ctl: POST only", http.StatusMethodNotAllowed)
		return
	}
	var req whatIfRequest
	if err := decodeStrict(r, &req); err != nil {
		writeFiddle(w, http.StatusBadRequest, "error", "bad JSON: "+err.Error())
		return
	}
	fallback := req.Fallback == nil || *req.Fallback
	ans, err := s.whatIfFn(&req.Query, fallback)
	if err != nil {
		var unknown *solver.ErrUnknown
		if errors.As(err, &unknown) {
			writeFiddle(w, http.StatusNotFound, "error", err.Error())
			return
		}
		writeFiddle(w, http.StatusBadRequest, "error", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(ans); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func writeFiddle(w http.ResponseWriter, status int, st, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(fiddleResponse{Status: st, Message: msg})
}
