package solverd_test

import (
	"math"
	"strings"
	"testing"

	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/sensor"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/solverd"
	"github.com/darklab/mercury/internal/units"
)

// TestTracedReadServeSpan: a traced sensor read gets exactly one
// sensor-serve span, parented to the request's span and naming the
// probe, the temperature served and the solver step, and the reader
// records one rpc span; an untraced read and a many-read get none. A
// traced read of an unknown node still gets its span, with value 0.
func TestTracedReadServeSpan(t *testing.T) {
	clk := clock.NewVirtual()
	served := causal.NewTracer(64, clk)
	c, err := model.DefaultCluster("room", 4)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solver.New(c, solver.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.SetUtilization("machine2", model.UtilCPU, 1); err != nil {
		t.Fatal(err)
	}
	srv, err := solverd.Listen("127.0.0.1:0", sol, solverd.WithClock(clk), solverd.WithTracer(served))
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	for i := 0; i < 3; i++ {
		srv.Tick()
	}
	r, err := sensor.Dial(srv.Addr().String(), sensor.Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rpcs := causal.NewTracer(64, clk)
	r.SetTracer(rpcs)
	serves := func() []causal.Span {
		var out []causal.Span
		for _, s := range served.Since(0) {
			if s.Kind == causal.KindSensorServe {
				out = append(out, s)
			}
		}
		return out
	}

	if _, err := r.ReadCtx(causal.Context{}, "machine2", model.NodeCPU); err != nil {
		t.Fatal(err)
	}
	probes := []sensor.Probe{{Machine: "machine1", Node: model.NodeCPU}, {Machine: "machine2", Node: model.NodeCPU}}
	if err := r.ReadMany(probes, make([]units.Celsius, len(probes))); err != nil {
		t.Fatal(err)
	}
	if n := len(serves()); n != 0 {
		t.Fatalf("untraced reads emitted %d serve spans, want 0", n)
	}
	if n := rpcs.Len(); n != 0 {
		t.Fatalf("untraced reads recorded %d rpc spans, want 0", n)
	}

	tc := causal.Context{Trace: 0xabc, Span: 0xdef}
	got, err := r.ReadCtx(tc, "machine2", model.NodeCPU)
	if err != nil {
		t.Fatal(err)
	}
	want, err := srv.Solver().Temperature("machine2", model.NodeCPU)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("traced read = %v, want %v", got, want)
	}
	spans := serves()
	if len(spans) != 1 {
		t.Fatalf("traced read emitted %d serve spans, want 1: %v", len(spans), spans)
	}
	s := spans[0]
	if s.Trace != tc.Trace || s.Parent != tc.Span || s.Machine != "machine2" || s.Node != model.NodeCPU ||
		math.Float64bits(s.Value) != math.Float64bits(float64(want)) || s.Step != 3 {
		t.Errorf("serve span = %+v; want trace %x parent %x machine2/cpu value %v step 3", s, tc.Trace, tc.Span, want)
	}
	rpc := rpcs.Since(0)
	if len(rpc) != 1 || rpc[0].Kind != causal.KindRPC || rpc[0].Trace != tc.Trace || rpc[0].Parent != tc.Span {
		t.Errorf("reader spans = %v, want one rpc span parented to the read", rpc)
	}

	ghost := causal.Context{Trace: 0x123, Span: 0x456}
	if _, err := r.ReadCtx(ghost, "machine2", "ghost"); err == nil || !strings.Contains(err.Error(), "machine2/ghost") {
		t.Errorf("read of an unknown node: err = %v, want it to name machine2/ghost", err)
	}
	spans = serves()
	if len(spans) != 2 {
		t.Fatalf("after the unknown node: %d serve spans, want 2", len(spans))
	}
	if s := spans[1]; s.Trace != ghost.Trace || s.Parent != ghost.Span || s.Machine != "machine2" || s.Node != "ghost" || s.Value != 0 {
		t.Errorf("unknown-node serve span = %+v", s)
	}
}
