package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the tables the
// program reports from: same workloads, same metrics, same units,
// directions and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if got := strings.Join(b.Command, " "); got != "go run ./benchmarks" {
		t.Errorf("command = %q", got)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmarks" {
		t.Errorf("paths = %v", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(b.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(b.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q used twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// quickRun runs one workload at quick size.
func quickRun(t *testing.T, workload string, seed int64, trace bool, traceOut string) *report {
	t.Helper()
	r, err := runWorkload(workload, options{seed: seed, quick: true, trace: trace, traceOut: traceOut, tmp: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func requireCorrect(t *testing.T, r *report) {
	t.Helper()
	for _, c := range r.Checks {
		if !c.OK {
			t.Errorf("%s: check %q failed: %s", r.Workload, c.Name, c.Detail)
		}
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", r.Workload, r.Correct, r.Attempted, r.Failed)
	}
	if r.SimDigest == "" {
		t.Errorf("%s: no sim_digest", r.Workload)
	}
}

// requireMetrics asserts the result line carries exactly the declared
// metrics, each finite and in its declared unit.
func requireMetrics(t *testing.T, r *report, defs []metricDef) {
	t.Helper()
	line := r.resultLine()
	if len(line.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d declared", r.Workload, len(line.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := line.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", r.Workload, d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("%s: %s reported in %q, declared %q", r.Workload, d.Name, m.Unit, d.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v", r.Workload, d.Name, m.Value)
		}
	}
}

// TestQuickWorkloads runs every workload at quick size, untraced and
// traced, and checks what the contract and the ledger promise: every
// declared metric present, every correctness check green, end-to-end
// metrics non-zero, and a trace file whose children lie inside their
// parents.
func TestQuickWorkloads(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			plain := quickRun(t, w.name, 1, false, "")
			requireCorrect(t, plain)
			requireMetrics(t, plain, endToEnd)
			for _, d := range endToEnd {
				if plain.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, d.Name, plain.Metrics[d.Name].Value)
				}
			}

			traceFile := filepath.Join(t.TempDir(), "spans.json")
			traced := quickRun(t, w.name, 1, true, traceFile)
			requireCorrect(t, traced)
			requireMetrics(t, traced, perLayer)
			if traced.SimDigest != plain.SimDigest {
				t.Errorf("%s: traced digest %s, untraced %s", w.name, traced.SimDigest, plain.SimDigest)
			}
			checkTraceFile(t, traceFile)
		})
	}
}

// checkTraceFile parses a span file and checks its tree: IDs unique,
// every parent present, every child inside its parent's interval, at
// least one root.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("trace file does not parse: %v", err)
	}
	if len(spans) == 0 {
		t.Fatal("trace file holds no spans")
	}
	byID := map[int]span{}
	roots := 0
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup || s.ID == 0 {
			t.Fatalf("span id %d duplicated or zero", s.ID)
		}
		if s.Name == "" || s.Layer == "" || s.EndNs < s.StartNs {
			t.Fatalf("malformed span %+v", s)
		}
		byID[s.ID] = s
		if s.Parent == 0 {
			roots++
		}
	}
	if roots == 0 {
		t.Error("no root span")
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %d (%s): parent %d not in the file", s.ID, s.Name, s.Parent)
		}
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			t.Errorf("span %d (%s) [%d, %d] outside parent %d (%s) [%d, %d]",
				s.ID, s.Name, s.StartNs, s.EndNs, p.ID, p.Name, p.StartNs, p.EndNs)
		}
	}
}

// TestSeedChangesInputsNotShape: the seed reaches the system only as
// generated inputs, so another seed simulates something else (another
// digest) while every count-level invariant — reports applied, steps
// taken, boundary frames — stays the same.
func TestSeedChangesInputsNotShape(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			a := quickRun(t, w.name, 1, false, "")
			b := quickRun(t, w.name, 2, false, "")
			requireCorrect(t, a)
			requireCorrect(t, b)
			if a.SimDigest == b.SimDigest {
				t.Errorf("seeds 1 and 2 share sim_digest %s", a.SimDigest)
			}
			if len(a.Counts) == 0 {
				t.Error("no counts reported")
			}
			for k, v := range a.Counts {
				if b.Counts[k] != v {
					t.Errorf("count %s: %d at seed 1, %d at seed 2", k, v, b.Counts[k])
				}
			}
		})
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestCompareVerdicts drives -compare over two synthetic sets.
func TestCompareVerdicts(t *testing.T) {
	write := func(name string, scale map[string]float64) string {
		path := filepath.Join(t.TempDir(), name)
		for seed := int64(1); seed <= 5; seed++ {
			r := newReport("room-kernel", options{seed: seed})
			r.SimDigest = "d"
			r.Attempted = 1
			for _, d := range endToEnd {
				f := scale[d.Name]
				if f == 0 {
					f = 1
				}
				r.set(d.Name, f*(100+float64(seed)*0.1))
			}
			r.finish()
			if err := appendReport(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.jsonl", nil)
	same := write("same.jsonl", nil)
	slow := write("slow.jsonl", map[string]float64{"emu_s_per_wall_s": 0.7, "cpu_us_per_emu_s": 0.5})

	var out bytes.Buffer
	if code := compareFiles(&out, a, same); code != 0 {
		t.Errorf("A/A compare exit %d:\n%s", code, out.String())
	}
	if strings.Contains(out.String(), "regressed") || strings.Contains(out.String(), "unresolved") {
		t.Errorf("A/A compare not all unchanged:\n%s", out.String())
	}
	out.Reset()
	if code := compareFiles(&out, a, slow); code != 1 {
		t.Errorf("regressed compare exit %d:\n%s", code, out.String())
	}
	for _, want := range []string{"regressed", "improved"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
}
