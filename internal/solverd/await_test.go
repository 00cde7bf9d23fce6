package solverd

import (
	"strings"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/sensor"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/udprpc"
	"github.com/darklab/mercury/internal/wire"
)

// reporter sends machine1's utilization reports to a server, one fresh
// sequence number per report, without allocating.
type reporter struct {
	t      *testing.T
	client *udprpc.Client
	b      wire.UtilBatch
	buf    []byte
}

func newReporter(t *testing.T, addr string) *reporter {
	t.Helper()
	c, err := udprpc.Dial(addr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &reporter{t: t, client: c, b: wire.UtilBatch{Reports: []wire.UtilReport{{
		Machine: "machine1",
		Entries: []wire.UtilEntry{{Source: model.UtilCPU, Util: 0.5}},
	}}}}
}

func (r *reporter) send() {
	r.b.Reports[0].Seq++
	var err error
	if r.buf, err = wire.AppendUtilBatch(r.buf[:0], &r.b); err != nil {
		r.t.Fatal(err)
	}
	if err := r.client.Send(r.buf); err != nil {
		r.t.Fatal(err)
	}
}

func TestAwaitUtilUpdates(t *testing.T) {
	t.Run("reached", func(t *testing.T) {
		srv, addr := startServer(t)
		r := newReporter(t, addr)
		r.send()
		waitFor(t, func() bool { return srv.Stats().UtilUpdates.Load() == 1 })
		if err := srv.AwaitUtilUpdates(1, time.Second); err != nil {
			t.Fatal(err)
		}
		if srv.utilGuard != nil {
			t.Error("a wait whose count was already reached armed its guard")
		}
	})

	t.Run("woken", func(t *testing.T) {
		srv, addr := startServer(t)
		r := newReporter(t, addr)
		const n = 5
		go func() {
			for i := 0; i < n; i++ {
				time.Sleep(time.Millisecond)
				r.send()
			}
		}()
		if err := srv.AwaitUtilUpdates(n, 30*time.Second); err != nil {
			t.Fatal(err)
		}
		if got := srv.Stats().UtilUpdates.Load(); got < n {
			t.Errorf("released at UtilUpdates = %d, want >= %d", got, n)
		}
	})

	t.Run("withheld", func(t *testing.T) {
		srv, addr := startServer(t)
		r := newReporter(t, addr)
		r.send()
		r.send()
		start := time.Now()
		err := srv.AwaitUtilUpdates(3, 50*time.Millisecond)
		if err == nil || !strings.Contains(err.Error(), "2 of 3 utilization updates") {
			t.Fatalf("err = %v, want the guard error counting 2 of 3", err)
		}
		if waited := time.Since(start); waited < 50*time.Millisecond {
			t.Errorf("guard fired after %v, want >= 50ms", waited)
		}
	})

	t.Run("stale token", func(t *testing.T) {
		srv, addr := startServer(t)
		r := newReporter(t, addr)
		r.send()
		if err := srv.AwaitUtilUpdates(1, time.Second); err != nil {
			t.Fatal(err)
		}
		// The previous second's report left its token behind after the
		// waiter had already seen the count.
		srv.utilWake <- struct{}{}
		if err := srv.AwaitUtilUpdates(2, 50*time.Millisecond); err == nil {
			t.Fatal("a stale token released a wait whose report never came")
		}
		r.send()
		if err := srv.AwaitUtilUpdates(2, 30*time.Second); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("closed", func(t *testing.T) {
		srv, _ := startServer(t)
		go func() {
			time.Sleep(10 * time.Millisecond)
			srv.Close()
		}()
		if err := srv.AwaitUtilUpdates(1, 30*time.Second); err == nil || !strings.Contains(err.Error(), "closed") {
			t.Fatalf("err = %v, want the closed error", err)
		}
	})

	t.Run("allocs", func(t *testing.T) {
		srv, addr := startServer(t)
		r := newReporter(t, addr)
		var want uint64
		second := func() {
			want++
			r.send()
			if err := srv.AwaitUtilUpdates(want, 30*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		second()
		if n := testing.AllocsPerRun(100, second); n != 0 {
			t.Errorf("report + wait: %v allocs/op, want 0", n)
		}
	})
}

// TestSensorRoundTripDoesNotAllocate pins both ends of a real-clock
// sensor read over loopback: client request, solverd decode, lookup and
// reply, client decode.
func TestSensorRoundTripDoesNotAllocate(t *testing.T) {
	_, addr := startServer(t)
	sd, err := sensor.Open(addr, "machine2", model.NodeCPU)
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := sd.Read(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("sensor read: %v allocs/op, want 0", n)
	}
}

// TestHandleSensorDoesNotAllocate: a read of one known machine and
// node, the datagram every single-sensor read sends, is decoded into
// Serve's scratch and answered from its reply buffer, traced or not.
func TestHandleSensorDoesNotAllocate(t *testing.T) {
	c, err := model.DefaultCluster("room", 4)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solver.New(c, solver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Listen("127.0.0.1:0", sol)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	one := []wire.Probe{{Machine: "machine3", Node: model.NodeCPU}}
	for _, tc := range []wire.TraceContext{{}, {Trace: 11, Span: 22}} {
		req, err := wire.AppendSensorReadMany(nil, &wire.SensorReadMany{Probes: one, Trace: tc})
		if err != nil {
			t.Fatal(err)
		}
		var rep wire.SensorReplyMany
		if err := wire.UnmarshalSensorReplyManyInto(&rep, srv.handleSensorMany(req)); err != nil || rep.Status != wire.StatusOK || len(rep.Temps) != 1 || rep.Temps[0] != 21.6 {
			t.Fatalf("trace %+v: reply = %+v, %v", tc, rep, err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := wire.UnmarshalSensorReplyManyInto(&rep, srv.handleSensorMany(req)); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("trace %+v: single-probe read: %v allocs/op, want 0", tc, n)
		}
	}
	// Unknown names are answered, not interned.
	bad, _ := wire.AppendSensorReadMany(nil, &wire.SensorReadMany{Probes: []wire.Probe{{Machine: "machine3", Node: "ghost"}}})
	var rep wire.SensorReplyMany
	if err := wire.UnmarshalSensorReplyManyInto(&rep, srv.handleSensorMany(bad)); err != nil || rep.Status != wire.StatusUnknown {
		t.Errorf("unknown node: reply = %+v, %v", rep, err)
	}
	if _, ok := srv.nodeNames["ghost"]; ok {
		t.Error("unknown node name was interned")
	}
}

// TestHandleSensorManyDoesNotAllocate: a many-read of known probes is
// decoded into Serve's scratch and answered from its reply buffer.
func TestHandleSensorManyDoesNotAllocate(t *testing.T) {
	c, err := model.DefaultCluster("room", 64)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solver.New(c, solver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Listen("127.0.0.1:0", sol)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ms, ns := sol.Probes()
	probes := make([]wire.Probe, wire.MaxSensorProbes)
	for i := range probes {
		probes[i] = wire.Probe{Machine: ms[i*7%len(ms)], Node: ns[i*7%len(ns)]}
	}
	req, err := wire.AppendSensorReadMany(nil, &wire.SensorReadMany{Probes: probes})
	if err != nil {
		t.Fatal(err)
	}
	var rep wire.SensorReplyMany
	if err := wire.UnmarshalSensorReplyManyInto(&rep, srv.handleSensorMany(req)); err != nil || rep.Status != wire.StatusOK || len(rep.Temps) != len(probes) {
		t.Fatalf("reply = %+v, %v", rep, err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := wire.UnmarshalSensorReplyManyInto(&rep, srv.handleSensorMany(req)); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("handleSensorMany: %v allocs/op, want 0", n)
	}
	// Unknown names are answered, not interned.
	bad, _ := wire.AppendSensorReadMany(nil, &wire.SensorReadMany{Probes: []wire.Probe{{Machine: "machine3", Node: "ghost"}}})
	if err := wire.UnmarshalSensorReplyManyInto(&rep, srv.handleSensorMany(bad)); err != nil || rep.Status != wire.StatusUnknown || rep.Failed != 0 {
		t.Errorf("unknown node: reply = %+v, %v", rep, err)
	}
	if _, ok := srv.nodeNames["ghost"]; ok {
		t.Error("unknown node name was interned")
	}
}

// TestLongUnknownNameAnswered: a reply whose error text names a
// 240-byte unknown machine is clipped to fit a wire string and sent,
// so the client learns of the unknown probe on its first attempt
// instead of waiting out every retry.
func TestLongUnknownNameAnswered(t *testing.T) {
	_, addr := startServer(t)
	c, err := udprpc.Dial(addr, 5*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	long := strings.Repeat("m", 240)

	many, _ := wire.AppendSensorReadMany(nil, &wire.SensorReadMany{Probes: []wire.Probe{
		{Machine: "machine1", Node: model.NodeCPU}, {Machine: long, Node: model.NodeCPU},
	}})
	buf, err := c.Do(many)
	if err != nil {
		t.Fatalf("many-read: %v", err)
	}
	var mrep wire.SensorReplyMany
	if err := wire.UnmarshalSensorReplyManyInto(&mrep, buf); err != nil || mrep.Status != wire.StatusUnknown || mrep.Failed != 1 {
		t.Errorf("many-read reply = %+v, %v; want StatusUnknown at probe 1", mrep, err)
	}

	op, _ := wire.MarshalFiddleOp(&wire.FiddleOp{Op: wire.OpPinInlet, Strings: []string{long}, Floats: []float64{30}})
	if buf, err = c.Do(op); err != nil {
		t.Fatalf("fiddle op: %v", err)
	}
	if frep, err := wire.UnmarshalFiddleReply(buf); err != nil || frep.Status != wire.StatusUnknown {
		t.Errorf("fiddle reply = %+v, %v; want StatusUnknown", frep, err)
	}
}
