package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// -compare a.jsonl b.jsonl: two sets of untraced runs (each a file
// -out appended to), compared per workload × end-to-end metric by the
// bounds this benchmark fixes. a is the base every ratio is given
// against.

// readReports loads a JSON-lines file of reports.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) returns (the exclusive method), so
// a spread computed here is the spread the driver computes.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return data[0], data[0], data[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// verdict classifies b against base a for one metric. worse is how
// much worse b's median is, as a share of a's; spread is the wider of
// the two interquartile ranges, on the same scale.
func verdict(def metricDef, a, b []float64) (string, float64, float64) {
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	if am == 0 {
		return "unresolved", 0, 0
	}
	worse := (bm - am) / am
	if def.Better == "higher" {
		worse = -worse
	}
	spread := (a3 - a1) / am
	if s := (b3 - b1) / am; s > spread {
		spread = s
	}
	if spread > def.Bound {
		// Too noisy to call, unless every run of b beats every run of a.
		if separated(def, a, b) {
			return "improved", worse, spread
		}
		return "unresolved", worse, spread
	}
	switch {
	case worse > def.Bound:
		return "regressed", worse, spread
	case -worse > def.Bound:
		return "improved", worse, spread
	}
	return "unchanged", worse, spread
}

// separated reports whether every value of b is better than every
// value of a.
func separated(def metricDef, a, b []float64) bool {
	sa, sb := samples(a).sorted(), samples(b).sorted()
	if def.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// compareFiles prints the comparison and returns the exit code: 1 if
// anything regressed, was unresolved, failed or simulated differently.
func compareFiles(w io.Writer, aPath, bPath string) int {
	a, err := readReports(aPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		return 2
	}
	b, err := readReports(bPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		return 2
	}
	bad := 0

	// Simulated statistics must agree wherever both sets ran the same
	// workload with the same seed, and nothing may have failed.
	type key struct {
		workload string
		seed     int64
	}
	digests := map[key]string{}
	for _, r := range a {
		if !r.Quick {
			digests[key{r.Workload, r.Seed}] = r.SimDigest
		}
	}
	matched := 0
	for _, r := range b {
		if want, ok := digests[key{r.Workload, r.Seed}]; ok && !r.Quick {
			matched++
			if r.SimDigest != want {
				fmt.Fprintf(w, "sim_digest differs: %s seed %d: %s vs %s\n", r.Workload, r.Seed, want, r.SimDigest)
				bad++
			}
		}
	}
	for _, set := range [][]report{a, b} {
		for _, r := range set {
			if r.Failed != 0 || !r.Correct {
				fmt.Fprintf(w, "run failed: %s seed %d: failed %d of %d, correct %v\n",
					r.Workload, r.Seed, r.Failed, r.Attempted, r.Correct)
				bad++
			}
		}
	}
	fmt.Fprintf(w, "sim_digest: %d workload/seed pairs in both sets compared\n", matched)

	collect := func(set []report, workload, name string) []float64 {
		var out []float64
		for _, r := range set {
			if r.Workload == workload && !r.Traced && !r.Quick {
				if m, ok := r.Metrics[name]; ok {
					out = append(out, m.Value)
				}
			}
		}
		return out
	}
	fmt.Fprintf(w, "%-13s %-17s %5s  %-34s %-34s %8s %6s %7s  %s\n",
		"workload", "metric", "unit", "a: median [q1, q3] (n)", "b: median [q1, q3] (n)", "b/a", "bound", "spread", "verdict")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			av, bv := collect(a, wl.name, def.Name), collect(b, wl.name, def.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			a1, am, a3 := quartiles(av)
			b1, bm, b3 := quartiles(bv)
			v, _, spread := verdict(def, av, bv)
			if v == "regressed" || v == "unresolved" {
				bad++
			}
			fmt.Fprintf(w, "%-13s %-17s %5s  %-34s %-34s %8.4f %5.0f%% %6.1f%%  %s\n",
				wl.name, def.Name, def.Unit,
				fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", am, a1, a3, len(av)),
				fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", bm, b1, b3, len(bv)),
				bm/am, def.Bound*100, spread*100, v)
		}
	}
	fmt.Fprintln(w, "b/a is b's median over base a's; spread is the wider interquartile range over a's median.")
	if bad > 0 {
		return 1
	}
	return 0
}
