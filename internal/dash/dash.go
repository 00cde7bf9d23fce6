// Package dash is mercury-dash's cluster aggregator. It subscribes to
// the /events SSE streams of any number of Mercury daemons, polls
// their /spans rings and scrapes their /metrics, and merges everything
// into one cluster timeline keyed by causal trace ID. From the merged
// spans it derives the paper's two end-to-end latencies — emergency
// detection to first admission-control actuation, and detection to
// recovery — as histograms in a telemetry registry, and it exports the
// whole timeline as Chrome trace-event JSON that Perfetto and
// chrome://tracing load directly. See docs/observability.md.
package dash

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/recordlog"
	"github.com/darklab/mercury/internal/telemetry"
)

// Target is one daemon's control plane.
type Target struct {
	// Name labels the target in the timeline and the Chrome export
	// (process name).
	Name string `json:"name"`
	// URL is the control plane's base URL, e.g. "http://127.0.0.1:9367".
	URL string `json:"url"`
}

// ParseTargets parses a comma-separated -targets flag value of
// name=url pairs; a bare url gets its host:port as name.
func ParseTargets(s string) ([]Target, error) {
	var out []Target
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok {
			url = part
			name = strings.TrimPrefix(strings.TrimPrefix(part, "http://"), "https://")
		}
		if !strings.Contains(url, "://") {
			url = "http://" + url
		}
		out = append(out, Target{Name: name, URL: strings.TrimSuffix(url, "/")})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("dash: no targets in %q", s)
	}
	return out, nil
}

// latencyBounds bucket the detect-to-actuate and detect-to-recover
// latencies, in seconds. Actuation often lands in the same observation
// period as detection (sub-second on the virtual clock); recovery takes
// minutes.
var latencyBounds = []float64{0.5, 1, 2, 5, 10, 30, 60, 120, 300, 600, 1200}

// srcSpan is a deduplicated span plus the target that first reported
// it.
type srcSpan struct {
	causal.Span
	Source string
}

// traceAcct tracks which latencies have been observed for one trace,
// so a span seen again on the next poll is not double-counted.
type traceAcct struct {
	actuated  bool
	recovered bool
}

// TargetState is one target's row in the aggregate /state document.
type TargetState struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Error   string `json:"error,omitempty"`
	Events  int    `json:"events"`
	Spans   int    `json:"spans"`
	// Metrics holds the unlabeled numeric series scraped from the
	// target's /metrics exposition.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Shard labels a horizontally sharded solverd as "region/regions"
	// (e.g. "1/4"), lifted from its /state document; empty for
	// unsharded daemons.
	Shard string `json:"shard,omitempty"`
	// State is the target's own /state document, embedded verbatim.
	State json.RawMessage `json:"state,omitempty"`
	// Alerts is the target's /alerts snapshot, embedded verbatim
	// (omitted when the target runs no alert engine); AlertsPending
	// and AlertsFiring lift its instance counters for the cluster
	// alert panel, which keys firing alerts by target name and Shard.
	Alerts        json.RawMessage `json:"alerts,omitempty"`
	AlertsPending int             `json:"alerts_pending,omitempty"`
	AlertsFiring  int             `json:"alerts_firing,omitempty"`
}

// alertCounts lifts the pending/firing instance counters out of a
// target's /alerts snapshot.
func alertCounts(raw json.RawMessage) (pending, firing int) {
	if raw == nil {
		return 0, 0
	}
	var s struct {
		Pending int `json:"pending"`
		Firing  int `json:"firing"`
	}
	if json.Unmarshal(raw, &s) != nil {
		return 0, 0
	}
	return s.Pending, s.Firing
}

// shardLabel extracts a sharded solverd's "region/regions" label from
// its embedded /state document ("" when the target is not a shard).
func shardLabel(raw json.RawMessage) string {
	if raw == nil {
		return ""
	}
	var s struct {
		Region  int `json:"region"`
		Regions int `json:"regions"`
	}
	if json.Unmarshal(raw, &s) != nil || s.Regions <= 1 {
		return ""
	}
	return fmt.Sprintf("%d/%d", s.Region, s.Regions)
}

// ClusterState is the aggregate /state document.
type ClusterState struct {
	Targets     []TargetState `json:"targets"`
	Traces      int           `json:"traces"`
	Emergencies int           `json:"emergencies"`
	Recovered   int           `json:"recovered"`
	Timeline    int           `json:"timeline_len"`
	// AlertsPending and AlertsFiring sum the per-target alert
	// counters — the cluster-wide alert panel's headline numbers.
	AlertsPending int `json:"alerts_pending"`
	AlertsFiring  int `json:"alerts_firing"`
}

// Entry is one row of the merged cluster timeline: either an event or
// a span, stamped with the target that reported it.
type Entry struct {
	At     time.Duration    `json:"at_ns"`
	Source string           `json:"source"`
	Trace  uint64           `json:"trace,omitempty"`
	Event  *telemetry.Event `json:"event,omitempty"`
	Span   *causal.Span     `json:"span,omitempty"`
}

// Aggregator merges the observability output of several daemons.
// Methods are safe for concurrent use; the SSE goroutines and the
// polling loop feed the same state.
type Aggregator struct {
	targets []Target
	client  *http.Client
	reg     *telemetry.Registry

	detectToActuate *telemetry.Histogram
	detectToRecover *telemetry.Histogram

	mu        sync.Mutex
	events    map[string][]telemetry.Event // per target, seq-ordered
	eventSeen map[string]uint64            // highest event seq ingested per target
	spanSeen  map[string]uint64            // highest span seq ingested per target
	spans     map[uint64]srcSpan           // deduplicated by content-derived span ID
	acct      map[uint64]*traceAcct        // per trace ID
	states    map[string]json.RawMessage
	alerts    map[string]json.RawMessage // per target /alerts snapshot
	metrics   map[string]map[string]float64
	lastErr   map[string]string
}

// New builds an aggregator over the given targets. The registry gains
// the dash's own metrics (latency histograms, ingest counters) and is
// what the dash's own /metrics serves.
func New(targets []Target, reg *telemetry.Registry) *Aggregator {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	a := &Aggregator{
		targets:   targets,
		client:    &http.Client{Timeout: 10 * time.Second},
		reg:       reg,
		events:    map[string][]telemetry.Event{},
		eventSeen: map[string]uint64{},
		spanSeen:  map[string]uint64{},
		spans:     map[uint64]srcSpan{},
		acct:      map[uint64]*traceAcct{},
		states:    map[string]json.RawMessage{},
		alerts:    map[string]json.RawMessage{},
		metrics:   map[string]map[string]float64{},
		lastErr:   map[string]string{},
	}
	a.detectToActuate = reg.Histogram("dash_detect_to_actuate_seconds",
		"emergency detection to first admission-control actuation", latencyBounds)
	a.detectToRecover = reg.Histogram("dash_detect_to_recover_seconds",
		"emergency detection to recovery", latencyBounds)
	reg.GaugeFunc("dash_traces", "distinct causal traces aggregated", func() float64 {
		a.mu.Lock()
		defer a.mu.Unlock()
		return float64(len(a.acct))
	})
	reg.GaugeFunc("dash_spans", "deduplicated spans aggregated", func() float64 {
		a.mu.Lock()
		defer a.mu.Unlock()
		return float64(len(a.spans))
	})
	return a
}

// Registry returns the aggregator's metrics registry.
func (a *Aggregator) Registry() *telemetry.Registry { return a.reg }

// BackfillStats summarizes one historical load.
type BackfillStats struct {
	Files    int
	Events   int
	Spans    int
	TempRows int
}

// Backfill loads every flight-recorder capture (*.mrl, see
// docs/recordlog.md) in dir into the aggregator before the live
// subscriptions start, so a cold-started dash is not blind to history
// the daemons' RAM rings have already wrapped past. Each file's
// events and spans are ingested under the node name recorded in its
// header, and — because ingestion runs through the same per-source
// seq high-water marks the live paths use — a subsequent
// /events?from= or /spans?from= subscription against a target with
// that name resumes exactly where the capture ended: no duplicates,
// no dropped records. Name live -targets after the daemons' node IDs
// for the handoff to engage.
func (a *Aggregator) Backfill(dir string) (BackfillStats, error) {
	var st BackfillStats
	matches, err := filepath.Glob(filepath.Join(dir, "*.mrl"))
	if err != nil {
		return st, err
	}
	if len(matches) == 0 {
		return st, fmt.Errorf("dash: no .mrl captures in %s", dir)
	}
	sort.Strings(matches)
	for _, path := range matches {
		// Rotation segments (base.1.mrl, …) are not separate captures:
		// ReadLog stitches them back through their base file, so
		// ingesting them here would double-count every record.
		if recordlog.IsSegment(path) {
			continue
		}
		log, err := recordlog.ReadLog(path)
		if err != nil {
			return st, fmt.Errorf("dash: backfill %s: %w", path, err)
		}
		a.addEvents(log.Header.Node, log.Events)
		a.AddSpans(log.Header.Node, log.Spans)
		st.Files++
		st.Events += len(log.Events)
		st.Spans += len(log.Spans)
		st.TempRows += len(log.TempRows)
	}
	return st, nil
}

// PollOnce fetches every target's spans, state, and metrics once, and
// — for targets whose SSE stream is not running — their retained
// events. The first error is returned after all targets were tried;
// per-target errors are also recorded in the /state document.
func (a *Aggregator) PollOnce(ctx context.Context) error {
	var first error
	for _, t := range a.targets {
		if err := a.pollTarget(ctx, t); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (a *Aggregator) pollTarget(ctx context.Context, t Target) error {
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// Events (JSON replay path; the SSE stream deduplicates against
	// the same per-target seq high-water mark).
	a.mu.Lock()
	from := a.eventSeen[t.Name]
	a.mu.Unlock()
	var evs []telemetry.Event
	if err := a.getJSON(ctx, t.URL+"/events?format=json&from="+strconv.FormatUint(from, 10), &evs); err != nil {
		note(err)
	} else {
		a.addEvents(t.Name, evs)
	}

	// Spans.
	a.mu.Lock()
	sfrom := a.spanSeen[t.Name]
	a.mu.Unlock()
	var spans []causal.Span
	if err := a.getJSON(ctx, t.URL+"/spans?from="+strconv.FormatUint(sfrom, 10), &spans); err != nil {
		// Daemons without a tracer answer 404; that is not an error.
		if !strings.Contains(err.Error(), "404") {
			note(err)
		}
	} else {
		a.AddSpans(t.Name, spans)
	}

	// State, embedded verbatim.
	if raw, err := a.getRaw(ctx, t.URL+"/state"); err != nil {
		if !strings.Contains(err.Error(), "404") {
			note(err)
		}
	} else {
		a.mu.Lock()
		a.states[t.Name] = raw
		a.mu.Unlock()
	}

	// Alerts snapshot, embedded verbatim. Daemons without an alert
	// engine (no -alerts flag) answer 404; that is not an error.
	if raw, err := a.getRaw(ctx, t.URL+"/alerts?format=json"); err != nil {
		if !strings.Contains(err.Error(), "404") {
			note(err)
		}
	} else {
		a.mu.Lock()
		a.alerts[t.Name] = raw
		a.mu.Unlock()
	}

	// Metrics scrape.
	if raw, err := a.getRaw(ctx, t.URL+"/metrics"); err != nil {
		note(err)
	} else {
		a.mu.Lock()
		a.metrics[t.Name] = parseMetrics(string(raw))
		a.mu.Unlock()
	}

	a.mu.Lock()
	if firstErr != nil {
		a.lastErr[t.Name] = firstErr.Error()
	} else {
		delete(a.lastErr, t.Name)
	}
	a.mu.Unlock()
	return firstErr
}

func (a *Aggregator) getRaw(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("dash: GET %s: %d", url, resp.StatusCode)
	}
	return body, nil
}

func (a *Aggregator) getJSON(ctx context.Context, url string, v any) error {
	body, err := a.getRaw(ctx, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// parseMetrics extracts the unlabeled series from a Prometheus text
// exposition — enough to surface each daemon's counters in the
// aggregate state without a real scrape pipeline.
func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.ContainsAny(name, "{}") {
			continue
		}
		if f, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = f
		}
	}
	return out
}

// addEvents ingests events from one target, deduplicating by the
// target's sequence numbers (SSE and polling may overlap).
func (a *Aggregator) addEvents(source string, evs []telemetry.Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, e := range evs {
		if e.Seq <= a.eventSeen[source] {
			continue
		}
		a.eventSeen[source] = e.Seq
		a.events[source] = append(a.events[source], e)
	}
}

// AddSpans ingests spans reported by a target, deduplicating by the
// content-derived span ID, and folds completed emergency traces into
// the latency histograms. Exported for harnesses that already hold a
// span set (the CI smoke test feeds Result.Spans directly).
func (a *Aggregator) AddSpans(source string, spans []causal.Span) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, s := range spans {
		if s.Seq > a.spanSeen[source] {
			a.spanSeen[source] = s.Seq
		}
		s.Seq = 0 // ring position is per-target; identity is the ID
		if _, ok := a.spans[s.ID]; ok {
			continue
		}
		a.spans[s.ID] = srcSpan{Span: s, Source: source}
	}
	a.updateLatenciesLocked()
}

// actuationKind reports whether a span kind is an admission-control or
// power actuation — the "first reaction" end of detect-to-actuate.
func actuationKind(k causal.Kind) bool {
	switch k {
	case causal.KindWeight, causal.KindConnCap, causal.KindClassBlock,
		causal.KindDrain, causal.KindPowerOn, causal.KindPowerOff, causal.KindRedLine:
		return true
	}
	return false
}

// updateLatenciesLocked walks the emergency traces and observes each
// latency exactly once per trace.
func (a *Aggregator) updateLatenciesLocked() {
	type agg struct {
		root     time.Duration
		hasRoot  bool
		actuate  time.Duration
		hasAct   bool
		recover  time.Duration
		hasRecov bool
	}
	byTrace := map[uint64]*agg{}
	for _, s := range a.spans {
		g := byTrace[s.Trace]
		if g == nil {
			g = &agg{}
			byTrace[s.Trace] = g
		}
		switch {
		case s.Kind == causal.KindEmergency:
			if !g.hasRoot || s.Begin < g.root {
				g.root, g.hasRoot = s.Begin, true
			}
		case actuationKind(s.Kind):
			if !g.hasAct || s.Begin < g.actuate {
				g.actuate, g.hasAct = s.Begin, true
			}
		case s.Kind == causal.KindRecovery:
			if !g.hasRecov || s.Begin < g.recover {
				g.recover, g.hasRecov = s.Begin, true
			}
		}
	}
	for traceID, g := range byTrace {
		if !g.hasRoot {
			continue
		}
		acct := a.acct[traceID]
		if acct == nil {
			acct = &traceAcct{}
			a.acct[traceID] = acct
		}
		if g.hasAct && !acct.actuated {
			a.detectToActuate.Observe((g.actuate - g.root).Seconds())
			acct.actuated = true
		}
		if g.hasRecov && !acct.recovered {
			a.detectToRecover.Observe((g.recover - g.root).Seconds())
			acct.recovered = true
		}
	}
}

// Stream opens one SSE subscription per target and keeps each alive
// (reconnecting with the per-target seq high-water mark) until ctx is
// done. It returns immediately; the subscriptions run in goroutines.
func (a *Aggregator) Stream(ctx context.Context) {
	for _, t := range a.targets {
		go a.streamTarget(ctx, t)
	}
}

func (a *Aggregator) streamTarget(ctx context.Context, t Target) {
	for ctx.Err() == nil {
		if err := a.streamOnce(ctx, t); err != nil {
			a.mu.Lock()
			a.lastErr[t.Name] = err.Error()
			a.mu.Unlock()
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(500 * time.Millisecond):
		}
	}
}

// streamOnce consumes one SSE connection until it breaks.
func (a *Aggregator) streamOnce(ctx context.Context, t Target) error {
	a.mu.Lock()
	from := a.eventSeen[t.Name]
	a.mu.Unlock()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		t.URL+"/events?from="+strconv.FormatUint(from, 10), nil)
	if err != nil {
		return err
	}
	// The SSE stream is long-lived; the polling client's timeout would
	// kill it.
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("dash: SSE %s: %d", t.URL, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue // ids, event names, keepalive comments, separators
		}
		var e telemetry.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
			continue
		}
		a.addEvents(t.Name, []telemetry.Event{e})
	}
	return sc.Err()
}

// State builds the aggregate /state document.
func (a *Aggregator) State() ClusterState {
	a.mu.Lock()
	defer a.mu.Unlock()
	cs := ClusterState{Traces: len(a.acct)}
	for _, s := range a.spans {
		if s.Kind == causal.KindEmergency {
			cs.Emergencies++
		}
		if s.Kind == causal.KindRecovery {
			cs.Recovered++
		}
	}
	for _, t := range a.targets {
		ts := TargetState{
			Name:    t.Name,
			URL:     t.URL,
			Events:  len(a.events[t.Name]),
			Metrics: a.metrics[t.Name],
			Shard:   shardLabel(a.states[t.Name]),
			State:   a.states[t.Name],
			Alerts:  a.alerts[t.Name],
			Error:   a.lastErr[t.Name],
		}
		ts.AlertsPending, ts.AlertsFiring = alertCounts(ts.Alerts)
		cs.AlertsPending += ts.AlertsPending
		cs.AlertsFiring += ts.AlertsFiring
		ts.Healthy = ts.Error == "" && (ts.Events > 0 || ts.Metrics != nil)
		for _, s := range a.spans {
			if s.Source == t.Name {
				ts.Spans++
			}
		}
		cs.Timeline += ts.Events + ts.Spans
		cs.Targets = append(cs.Targets, ts)
	}
	return cs
}

// Timeline returns the merged cluster timeline: every event and every
// span from every target in one deterministic order (time, then events
// before spans — matching the daemons' emit order — then source, then
// canonical span order).
func (a *Aggregator) Timeline() []Entry {
	a.mu.Lock()
	var out []Entry
	for _, t := range a.targets {
		for i := range a.events[t.Name] {
			e := a.events[t.Name][i]
			out = append(out, Entry{At: e.At, Source: t.Name, Event: &e})
		}
	}
	spans := make([]causal.Span, 0, len(a.spans))
	srcByID := make(map[uint64]string, len(a.spans))
	for id, s := range a.spans {
		spans = append(spans, s.Span)
		srcByID[id] = s.Source
	}
	a.mu.Unlock()

	causal.Sort(spans)
	for i := range spans {
		s := spans[i]
		out = append(out, Entry{At: s.Begin, Source: srcByID[s.ID], Trace: s.Trace, Span: &spans[i]})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		// Events sort before spans at the same instant; both slices
		// are already internally ordered, so stability does the rest.
		return out[i].Span == nil && out[j].Span != nil
	})
	return out
}
