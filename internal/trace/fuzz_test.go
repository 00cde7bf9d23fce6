package trace

import (
	"strings"
	"testing"
)

// FuzzReadTrace asserts the parser's contract on arbitrary input (a
// mercury-solver -trace file comes from outside the program): it must
// return a trace or an error, never panic, and every trace it accepts
// has non-negative, non-decreasing times, utilizations in [0, 1], and a
// duration equal to its last time.
func FuzzReadTrace(f *testing.F) {
	f.Add(sample)
	f.Add("0 m cpu 1\n1e-10 m disk 0\n")
	f.Add("NaN m cpu 0.5\n")
	f.Add("Inf m cpu 0.5\n")
	f.Add("9.2233720368e9 m cpu 0.5\n")
	f.Add("1e10 m cpu 0.5\n")
	f.Add("-0 m cpu -0\n")
	f.Add("0x1p3 m net 0x1p-1\n")
	f.Add("5 m cpu 0.5\n4 m cpu 0.5\n")
	f.Add("0 m cpu NaN\n")
	f.Add("# only a comment\n\n")
	f.Fuzz(func(t *testing.T, src string) {
		tr, err := ReadTrace(strings.NewReader(src))
		if err != nil {
			return
		}
		for i, r := range tr.Records {
			if r.At < 0 {
				t.Fatalf("record %d at negative time %v", i, r.At)
			}
			if i > 0 && r.At < tr.Records[i-1].At {
				t.Fatalf("record %d at %v precedes record %d at %v", i, r.At, i-1, tr.Records[i-1].At)
			}
			if !r.Util.Valid() {
				t.Fatalf("record %d has utilization %v outside [0,1]", i, r.Util)
			}
		}
		if n := len(tr.Records); n == 0 && tr.Duration() != 0 || n > 0 && tr.Duration() != tr.Records[n-1].At {
			t.Fatalf("duration %v is not the last record's time", tr.Duration())
		}
	})
}
