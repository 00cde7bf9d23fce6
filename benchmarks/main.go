// Command benchmarks is the repository's whole-stack benchmark: four
// workloads that load Mercury's layers differently, the end-to-end
// metrics a user of the emulator sees, and a per-layer ledger measured
// from outside by timing the calls into each package. BENCHMARK.json
// at the repository root names the command, the workloads and every
// metric; README.md in this directory explains how to read them.
//
//	go run ./benchmarks -workload fig11-stack -seed 1 -seconds 15 -trace 0
//	go run ./benchmarks -workload rack-sharded -trace 1 -trace-out spans.json
//	go run ./benchmarks -compare a.jsonl b.jsonl
//
// With -trace 0 a run reports the end-to-end metrics, measured with no
// benchmark code inside the timed intervals; with -trace 1 it reports
// the per-layer metrics from a separate traced run. The last line of
// standard output is one JSON object {correct, attempted, failed,
// metrics}. A failed correctness check still prints every metric and
// then exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// options are one run's settings.
type options struct {
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	traceOut string
	tmp      string // scratch directory for captures, removed at exit
}

// workloads maps each name in BENCHMARK.json to its driver.
var workloads = []struct {
	name string
	run  func(opt options, r *report) error
}{
	{"fig11-stack", func(opt options, r *report) error { return runOnline(fig11Spec(opt.quick), opt, r) }},
	{"room64-batch", func(opt options, r *report) error { return runOnline(room64Spec(opt.quick), opt, r) }},
	{"rack-sharded", runSharded},
	{"room-kernel", runKernel},
}

// runWorkload runs one workload to a finished report. A driver error
// (a wait that timed out, a socket that would not open) fails the
// report rather than aborting: whatever was measured is still printed.
func runWorkload(name string, opt options) (*report, error) {
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		r := newReport(name, opt)
		prog.mu.Lock()
		prog.workload = name
		prog.mu.Unlock()
		mark(0, "start")
		if err := w.run(opt, r); err != nil {
			r.check("run completed", false, err.Error())
		}
		r.finish()
		return r, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]resultItem `json:"metrics"`
}

type resultItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) resultLine() resultLine {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	out := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]resultItem{}}
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	for _, d := range defs {
		m := r.Metrics[d.Name]
		out.Metrics[d.Name] = resultItem{Value: m.Value, Unit: m.Unit}
	}
	return out
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		opt      options
		workload = flag.String("workload", "", "workload to run (one of BENCHMARK.json's workloads)")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		outPath  = flag.String("out", "", "append the full report (host header, seed, digests, every metric) to this file, one JSON object per line")
		compare  = flag.Bool("compare", false, "compare two -out files: benchmarks -compare a.jsonl b.jsonl")
	)
	flag.Int64Var(&opt.seed, "seed", 1, "seed for the generated inputs (request trace, utilization churn, sensor picks)")
	flag.Float64Var(&opt.seconds, "seconds", 15, "seconds of wall time the measured phase runs for")
	flag.BoolVar(&opt.quick, "quick", false, "small fixed sizes (each workload under 2 s), for tests")
	flag.StringVar(&opt.traceOut, "trace-out", "", "with -trace 1, write the first window of spans to this file")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmarks -compare a.jsonl b.jsonl")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmarks: -trace must be 0 or 1")
		return 2
	}
	opt.trace = *trace == 1
	if opt.quick {
		opt.seconds = 0
	}

	// Captures and flight-recorder files go under the working
	// directory (the checkout), never the system temp directory.
	if err := os.MkdirAll(".bench_tmp", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		return 2
	}
	tmp, err := os.MkdirTemp(".bench_tmp", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		return 2
	}
	opt.tmp, _ = filepath.Abs(tmp)
	defer os.RemoveAll(opt.tmp)

	stop := startWatchdog(func(msg string) {
		fmt.Fprintln(os.Stderr, "benchmarks:", msg)
		os.RemoveAll(opt.tmp)
		os.Exit(3)
	})
	defer stop()

	r, err := runWorkload(*workload, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		return 2
	}
	r.print(os.Stdout)
	if *outPath != "" {
		if err := appendReport(*outPath, r); err != nil {
			fmt.Fprintln(os.Stderr, "benchmarks:", err)
			return 2
		}
	}
	line, err := json.Marshal(r.resultLine())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		return 2
	}
	fmt.Println(string(line))
	if !r.Correct {
		return 1
	}
	return 0
}

// appendReport adds r to a JSON-lines file.
func appendReport(path string, r *report) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
