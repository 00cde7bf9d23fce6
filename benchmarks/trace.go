package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Tracing lives entirely in the benchmark: spans wrap the calls the
// drivers make into each layer, they are kept in memory, and nothing
// in the system under test knows about them. A nil *spanRec turns
// every method into a no-op, which is the untraced run.
//
// Spans are never compared between runs (their stamps are host time);
// only the simulated statistics are.

// span is one timed call. Parent 0 means a root (one per emulated
// second); IDs start at 1.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanStat aggregates every span of one name.
type spanStat struct {
	layer string
	count int
	total float64 // µs, whole spans
	self  float64 // µs, minus children
	durs  samples // µs per span
}

// spanRec records spans for the current flush window and folds them
// into per-name statistics at flush, so a long traced run holds one
// window of spans, not all of them. The first window is kept verbatim
// for the trace file.
type spanRec struct {
	epoch  time.Time
	spans  []span
	nextID int
	stats  map[string]*spanStat
	kept   []span
}

func newSpanRec() *spanRec {
	return &spanRec{epoch: time.Now(), stats: map[string]*spanStat{}}
}

// begin opens a span and returns its ID (0 when tracing is off).
func (r *spanRec) begin(name, layer string, parent int) int {
	if r == nil {
		return 0
	}
	r.nextID++
	r.spans = append(r.spans, span{
		Name: name, Layer: layer, ID: r.nextID, Parent: parent,
		StartNs: time.Since(r.epoch).Nanoseconds(),
	})
	return r.nextID
}

// end closes the span begin returned.
func (r *spanRec) end(id int) {
	if r == nil || id == 0 {
		return
	}
	// IDs are dense within a window: the window's first span has ID
	// nextID-len(spans)+1.
	r.spans[id-(r.nextID-len(r.spans))-1].EndNs = time.Since(r.epoch).Nanoseconds()
}

// flush folds the window's spans into the statistics. Call it between
// root spans (every open span must have ended).
func (r *spanRec) flush() {
	if r == nil || len(r.spans) == 0 {
		return
	}
	base := r.nextID - len(r.spans)
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent > base {
			child[s.Parent-base-1] += s.EndNs - s.StartNs
		}
	}
	for i, s := range r.spans {
		st := r.stats[s.Name]
		if st == nil {
			st = &spanStat{layer: s.Layer}
			r.stats[s.Name] = st
		}
		dur := s.EndNs - s.StartNs
		st.count++
		st.total += float64(dur) / 1e3
		st.self += float64(dur-child[i]) / 1e3
		st.durs.add(float64(dur) / 1e3)
	}
	if r.kept == nil {
		r.kept = r.spans
		r.spans = nil
	} else {
		r.spans = r.spans[:0]
	}
}

// stat returns the aggregate for a span name (zero value if the
// workload never opened one).
func (r *spanRec) stat(name string) spanStat {
	if r == nil || r.stats[name] == nil {
		return spanStat{}
	}
	return *r.stats[name]
}

// layerSelf sums self time per layer, in µs.
func (r *spanRec) layerSelf() map[string]float64 {
	out := map[string]float64{}
	if r == nil {
		return out
	}
	for _, st := range r.stats {
		out[st.layer] += st.self
	}
	return out
}

// writeFile writes the kept window as a JSON array of spans.
func (r *spanRec) writeFile(path string) error {
	data, err := json.Marshal(r.kept)
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}
