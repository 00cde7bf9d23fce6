package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/stats"
)

const sample = `# a trace
0 machine1 cpu 0.25
0 machine1 disk 0.10
1 machine1 cpu 0.50
2.5 machine1 cpu 0.75
`

func TestReadTrace(t *testing.T) {
	tr, err := ReadTrace(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 4 {
		t.Fatalf("records = %d", len(tr.Records))
	}
	r := tr.Records[3]
	if r.At != 2500*time.Millisecond || r.Machine != "machine1" ||
		r.Source != model.UtilCPU || r.Util != 0.75 {
		t.Errorf("last record = %+v", r)
	}
	if tr.Duration() != 2500*time.Millisecond {
		t.Errorf("duration = %v", tr.Duration())
	}
}

func TestReadTraceErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"fields", "0 machine1 cpu\n"},
		{"negative time", "-1 machine1 cpu 0.5\n"},
		{"decreasing time", "5 m cpu 0.5\n4 m cpu 0.5\n"},
		{"bad util", "0 m cpu high\n"},
		{"util out of range", "0 m cpu 1.5\n"},
		{"bad time", "soon m cpu 0.5\n"},
	}
	for _, tc := range cases {
		if _, err := ReadTrace(strings.NewReader(tc.src)); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
	// A time.Duration cannot hold these; they are bad times, not
	// times out of order.
	for _, secs := range []string{"NaN", "Inf", "1e10"} {
		_, err := ReadTrace(strings.NewReader("0 m cpu 0.5\n" + secs + " m cpu 0.5\n"))
		if want := "trace: line 2: bad time " + strconv.Quote(secs); err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", secs, err, want)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr, err := ReadTrace(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Errorf("round trip changed the trace:\n%+v\n%+v", tr, got)
	}
}

func TestReplicate(t *testing.T) {
	tr, _ := ReadTrace(strings.NewReader(sample))
	big := tr.Replicate(map[string][]string{
		"machine1": {"machine1", "machine2", "machine3", "machine4"},
	})
	if len(big.Records) != 16 {
		t.Fatalf("replicated records = %d, want 16", len(big.Records))
	}
	perMachine := map[string]int{}
	for _, r := range big.Records {
		perMachine[r.Machine]++
	}
	if len(perMachine) != 4 || perMachine["machine4"] != 4 {
		t.Errorf("records per machine = %v, want 4 each of 4", perMachine)
	}
	// Timestamps stay sorted.
	for i := 1; i < len(big.Records); i++ {
		if big.Records[i].At < big.Records[i-1].At {
			t.Fatal("replicated trace not sorted")
		}
	}
	// Unmapped machines disappear.
	none := tr.Replicate(map[string][]string{})
	if len(none.Records) != 0 {
		t.Errorf("unmapped records kept: %d", len(none.Records))
	}
}

func TestReplayProducesLog(t *testing.T) {
	src := `0 m1 cpu 1.0
600 m1 cpu 1.0
`
	tr, err := ReadTrace(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	s, err := solver.NewSingle(model.DefaultServer("m1"), solver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	temps, err := Replay(s, tr, []Probe{{Machine: "m1", Node: model.NodeCPU}}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(temps) != 1 {
		t.Fatalf("series = %d, want one per probe", len(temps))
	}
	// 600 s at one sample per minute: t=0..600 inclusive = 11 samples.
	cpu := temps[0].Points
	if len(cpu) != 11 {
		t.Fatalf("samples = %d, want 11", len(cpu))
	}
	first, last := cpu[0], cpu[len(cpu)-1]
	if first.Value != 21.6 {
		t.Errorf("initial temp = %v", first.Value)
	}
	if last.At != 600*time.Second || last.Value <= first.Value+10 {
		t.Errorf("temperature did not rise under full load: %v -> %v at %v", first.Value, last.Value, last.At)
	}
	// Monotone rise toward steady state under constant full load.
	for i := 1; i < len(cpu); i++ {
		if cpu[i].Value < cpu[i-1].Value {
			t.Fatalf("non-monotone heating at %v", cpu[i].At)
		}
	}
}

func TestReplayUnknownMachine(t *testing.T) {
	tr, _ := ReadTrace(strings.NewReader("0 ghost cpu 0.5\n"))
	s, _ := solver.NewSingle(model.DefaultServer("m1"), solver.Config{})
	if _, err := Replay(s, tr, nil, time.Second); err == nil {
		t.Error("unknown machine in trace: want error")
	}
}

func TestReplayUnknownProbe(t *testing.T) {
	tr, _ := ReadTrace(strings.NewReader("0 m1 cpu 0.5\n1 m1 cpu 0.6\n"))
	s, _ := solver.NewSingle(model.DefaultServer("m1"), solver.Config{})
	if _, err := Replay(s, tr, []Probe{{Machine: "m1", Node: "ghost"}}, time.Second); err == nil {
		t.Error("unknown probe: want error")
	}
}

func TestReplicatedClusterEmulation(t *testing.T) {
	// The headline offline feature: record one machine, emulate four.
	tr, _ := ReadTrace(strings.NewReader("0 machine1 cpu 0.8\n300 machine1 cpu 0.8\n"))
	big := tr.Replicate(map[string][]string{
		"machine1": {"machine1", "machine2", "machine3", "machine4"},
	})
	c, err := model.DefaultCluster("room", 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := solver.New(c, solver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	probes := make([]Probe, 4)
	for i := range probes {
		probes[i] = Probe{Machine: fmt.Sprintf("machine%d", i+1), Node: model.NodeCPU}
	}
	temps, err := Replay(s, big, probes, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Final sample: all four machines at identical temperature.
	final := func(i int) stats.Point { return temps[i].Points[temps[i].Len()-1] }
	for i, p := range probes {
		if got := final(i); got.At != 5*time.Minute || got.Value != final(0).Value || got.Value <= 25 {
			t.Errorf("%s ends at %v with %v, want heated and equal to machine1's %v", p.Machine, got.At, got.Value, final(0).Value)
		}
	}
}
