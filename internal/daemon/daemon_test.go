package daemon

import (
	"errors"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/freon"
	"github.com/darklab/mercury/internal/recordlog"
	"github.com/darklab/mercury/internal/telemetry"
)

// TestOpenBuildsWhatFlagsAsk pins the one wiring rule: which feeds
// exist for which flag combination.
func TestOpenBuildsWhatFlagsAsk(t *testing.T) {
	type has struct{ registry, tracer, recorder, alerts bool }
	cases := []struct {
		name string
		args []string
		want has
	}{
		{"nothing", nil, has{}},
		{"ctl", []string{"-ctl", "127.0.0.1:0"}, has{registry: true}},
		{"ctl+pprof", []string{"-ctl", "127.0.0.1:0", "-pprof"}, has{registry: true}},
		{"trace-spans", []string{"-trace-spans"}, has{tracer: true}},
		{"alerts", []string{"-alerts", "default"}, has{alerts: true}},
		// The recorder needs the registry: solverd's temperature table,
		// whose rows the recorder captures, hangs off it.
		{"record", []string{"-record", "DIR"}, has{registry: true, recorder: true}},
		{"record+trace-spans+alerts", []string{"-record", "DIR", "-record-max-bytes", "4096", "-trace-spans", "-alerts", "default"},
			has{registry: true, tracer: true, recorder: true, alerts: true}},
		{"everything", []string{"-ctl", "127.0.0.1:0", "-record", "DIR", "-trace-spans", "-alerts", "default"},
			has{registry: true, tracer: true, recorder: true, alerts: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			args := append([]string(nil), tc.args...)
			for i, a := range args {
				if a == "DIR" {
					args[i] = dir
				}
			}
			var fl Flags
			fs := flag.NewFlagSet(tc.name, flag.ContinueOnError)
			fl.Register(fs)
			if err := fs.Parse(args); err != nil {
				t.Fatal(err)
			}
			st, err := Open(Config{Flags: fl, Node: "node"})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if err := st.Watch(Watch{Step: time.Second}); err != nil {
				t.Fatal(err)
			}
			if st.Events == nil || st.Clock == nil {
				t.Error("Events and Clock must always exist")
			}
			got := has{st.Registry != nil, st.Tracer != nil, st.Recorder != nil, st.Alerts != nil}
			if got != tc.want {
				t.Errorf("built %+v, want %+v", got, tc.want)
			}
			if tc.want.recorder {
				if _, err := os.Stat(filepath.Join(dir, "node.mrl")); err != nil {
					t.Errorf("capture not at <dir>/<node>.mrl: %v", err)
				}
			}
		})
	}
}

func TestOpenRejectsBadFlags(t *testing.T) {
	if _, err := Open(Config{Flags: Flags{Pprof: true}}); !errors.Is(err, ErrUsage) {
		t.Errorf("-pprof without -ctl: err = %v, want ErrUsage", err)
	}
	null := filepath.Join(t.TempDir(), "rules.json")
	if err := os.WriteFile(null, []byte("null"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, alerts := range []string{null, filepath.Join(t.TempDir(), "missing.json")} {
		if _, err := Open(Config{Flags: Flags{Alerts: alerts}}); !errors.Is(err, ErrUsage) {
			t.Errorf("-alerts %s: err = %v, want ErrUsage", alerts, err)
		}
	}
}

// TestRecorderCapturesEveryFeed opens the full stack on a virtual
// clock, pushes one record through each feed, and reads all three back
// from the capture.
func TestRecorderCapturesEveryFeed(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewVirtual()
	st, err := Open(Config{
		Flags: Flags{Record: dir, TraceSpans: true, Alerts: "default"},
		Node:  "rig",
		Clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One CPU probe the engine reads as past its red line: the default
	// redline-proximity rule fires on the first tick.
	cpu := freon.DefaultComponents()[0]
	hot := float64(cpu.RedLine) + 1
	var missed uint64
	if err := st.Watch(Watch{
		Step:   time.Second,
		Probes: ThermalProbes([]string{"machine1", "machine1"}, []string{cpu.Node, "inlet"}, freon.DefaultComponents()),
		Fill:   func(dst []float64) int { dst[0], dst[1] = hot, 21; return 2 },
		Health: func() (uint64, uint64) { return missed, 0 },
	}); err != nil {
		t.Fatal(err)
	}
	if p := st.Alerts.Probes(); p[0].RedLine != float64(cpu.RedLine) || p[1].RedLine != 0 {
		t.Errorf("ThermalProbes thresholds = %+v", p)
	}

	clk.Advance(time.Second)
	st.Events.Emit(telemetry.EvFiddle, "machine1", "inlet", 38.6, "test")
	st.Tracer.Emit(causal.Span{Trace: st.Tracer.NewTrace("rig"), Kind: causal.KindStep, Begin: st.Tracer.Now(), End: st.Tracer.Now(), Step: 1})
	st.Alerts.EvalTick(1)
	missed = 3
	st.Alerts.EvalTick(2)
	if len(st.Alerts.Timeline()) == 0 {
		t.Fatal("no alert transition to capture")
	}

	path, drops, err := st.Close()
	if err != nil || drops != 0 || path != filepath.Join(dir, "rig.mrl") {
		t.Fatalf("Close = %q, %d, %v", path, drops, err)
	}
	log, err := recordlog.ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if !log.Header.Virtual() || log.Header.Node != "rig" {
		t.Errorf("header = %+v", log.Header)
	}
	if len(log.Spans) != 1 || log.Spans[0].Step != 1 {
		t.Errorf("spans = %+v", log.Spans)
	}
	if !reflect.DeepEqual(log.Alerts, st.Alerts.Timeline()) {
		t.Errorf("captured alert transitions %+v, engine made %+v", log.Alerts, st.Alerts.Timeline())
	}
	// Transitions also land in the shared event log, after the fiddle.
	if len(log.Events) != 1+len(log.Alerts) || log.Events[0].Type != telemetry.EvFiddle || log.Events[0].At != time.Second {
		t.Errorf("events = %+v", log.Events)
	}
}

// TestServeAndCloseTwice: ctl.Server.Close panics when called twice,
// and every caller both defers Close and calls it for the result.
func TestServeAndCloseTwice(t *testing.T) {
	st, err := Open(Config{Flags: Flags{Ctl: "127.0.0.1:0", Record: t.TempDir(), Alerts: "default"}, Node: "n"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Watch(Watch{Step: time.Second}); err != nil {
		t.Fatal(err)
	}
	bound, err := st.Serve()
	if err != nil || bound == "" {
		t.Fatalf("Serve = %q, %v", bound, err)
	}
	for _, ep := range []string{"/healthz", "/metrics", "/alerts?format=json"} {
		resp, err := http.Get("http://" + bound + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", ep, resp.StatusCode)
		}
	}
	path, _, err := st.Close()
	if err != nil || path == "" {
		t.Fatalf("first Close = %q, %v", path, err)
	}
	if again, _, err := st.Close(); err != nil || again != path {
		t.Errorf("second Close = %q, %v; want %q, nil", again, err, path)
	}
	if _, err := http.Get("http://" + bound + "/healthz"); err == nil {
		t.Error("control plane still answering after Close")
	}
}

func TestServeWithoutCtl(t *testing.T) {
	st, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if bound, err := st.Serve(); bound != "" || err != nil {
		t.Errorf("Serve without -ctl = %q, %v", bound, err)
	}
	if path, drops, err := st.Close(); path != "" || drops != 0 || err != nil {
		t.Errorf("Close without -record = %q, %d, %v", path, drops, err)
	}
}
