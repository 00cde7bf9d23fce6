package solverd

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/fiddle"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/monitord"
	"github.com/darklab/mercury/internal/procfs"
	"github.com/darklab/mercury/internal/sensor"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/udprpc"
	"github.com/darklab/mercury/internal/units"
	"github.com/darklab/mercury/internal/wire"
)

// startServer brings up a daemon on a loopback port with a 4-machine
// cluster and returns it with its address.
func startServer(t *testing.T) (*Server, string) {
	t.Helper()
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
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv, srv.Addr().String()
}

func TestSensorReadOverUDP(t *testing.T) {
	srv, addr := startServer(t)
	sd, err := sensor.Open(addr, "machine1", model.NodeCPU)
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	temp, err := sd.Read()
	if err != nil {
		t.Fatal(err)
	}
	if temp != 21.6 {
		t.Errorf("initial CPU = %v, want 21.6", temp)
	}
	if sd.Machine() != "machine1" || sd.Node() != model.NodeCPU {
		t.Errorf("sensor identity = %s/%s", sd.Machine(), sd.Node())
	}
	if srv.Stats().SensorReads.Load() < 2 { // open probe + read
		t.Errorf("sensor reads counted = %d", srv.Stats().SensorReads.Load())
	}
}

func TestSensorOpenUnknownNode(t *testing.T) {
	_, addr := startServer(t)
	if _, err := sensor.Open(addr, "machine1", "ghost"); err == nil {
		t.Error("open of unknown node: want error")
	}
	if _, err := sensor.Open(addr, "ghost", model.NodeCPU); err == nil {
		t.Error("open of unknown machine: want error")
	}
}

func TestSensorSeesSolverProgress(t *testing.T) {
	srv, addr := startServer(t)
	sd, err := sensor.Open(addr, "machine2", model.NodeCPU)
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	srv.Solver().SetUtilization("machine2", model.UtilCPU, 1)
	srv.Solver().Run(30 * time.Minute)
	temp, err := sd.Read()
	if err != nil {
		t.Fatal(err)
	}
	if temp < 40 {
		t.Errorf("CPU after 30min of load = %v, want warm", temp)
	}
}

func TestMonitordFeedsSolver(t *testing.T) {
	srv, addr := startServer(t)
	synth := procfs.NewSynthetic(model.UtilCPU, model.UtilDisk)
	synth.Set(model.UtilCPU, 0.7)
	synth.Set(model.UtilDisk, 0.3)
	d, err := monitord.New(monitord.Config{
		Machine:    "machine3",
		Sampler:    synth,
		SolverAddr: addr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.SampleOnce(); err != nil {
		t.Fatal(err)
	}
	if d.Sent() != 1 {
		t.Errorf("Sent = %d", d.Sent())
	}
	// UDP is async: poll for the update to land.
	deadline := time.Now().Add(2 * time.Second)
	for {
		u, err := srv.Solver().Utilization("machine3", model.UtilCPU)
		if err != nil {
			t.Fatal(err)
		}
		if u == 0.7 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("update never applied; cpu util = %v", u)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got, _ := srv.Solver().Utilization("machine3", model.UtilDisk); got != 0.3 {
		t.Errorf("disk util = %v, want 0.3", got)
	}
	if srv.LastSeq("machine3") != 1 {
		t.Errorf("LastSeq = %d, want 1", srv.LastSeq("machine3"))
	}
}

func TestStaleUpdatesDropped(t *testing.T) {
	srv, addr := startServer(t)
	send := func(seq uint32, util float64) {
		t.Helper()
		buf, err := wire.MarshalUtilUpdate(&wire.UtilUpdate{
			Machine: "machine1",
			Seq:     seq,
			Entries: []wire.UtilEntry{{Source: model.UtilCPU, Util: units.Fraction(util)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		c, err := dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Send(buf); err != nil {
			t.Fatal(err)
		}
	}
	send(10, 0.9)
	waitFor(t, func() bool {
		u, _ := srv.Solver().Utilization("machine1", model.UtilCPU)
		return u == 0.9
	})
	send(5, 0.1) // stale: must be ignored
	send(11, 0.4)
	waitFor(t, func() bool {
		u, _ := srv.Solver().Utilization("machine1", model.UtilCPU)
		return u == 0.4
	})
	if srv.LastSeq("machine1") != 11 {
		t.Errorf("LastSeq = %d, want 11", srv.LastSeq("machine1"))
	}
}

// TestRestartedMonitordAccepted: a monitord that restarts counts from
// 1 again. That is far outside the reordering window below the last
// accepted report, so it must be taken as a restart at once — not
// ignored until the new process out-counts the old one.
func TestRestartedMonitordAccepted(t *testing.T) {
	srv, addr := startServer(t)
	c, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	send := func(seq uint32, util float64) {
		t.Helper()
		buf, err := wire.MarshalUtilUpdate(&wire.UtilUpdate{
			Machine: "machine1",
			Seq:     seq,
			Entries: []wire.UtilEntry{{Source: model.UtilCPU, Util: units.Fraction(util)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Send(buf); err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool {
			u, _ := srv.Solver().Utilization("machine1", model.UtilCPU)
			return float64(u) == util
		})
	}
	send(1000, 0.9) // a 1000 s run ...
	send(1, 0.3)    // ... then the restart's first report
	if got := srv.LastSeq("machine1"); got != 1 {
		t.Errorf("LastSeq after restart = %d, want 1", got)
	}
	send(2, 0.5)
	// Reordering inside the window is still dropped after the restart.
	send(reorderWindow+2, 0.6)
	before := srv.Stats().UtilUpdates.Load()
	buf, _ := wire.MarshalUtilUpdate(&wire.UtilUpdate{Machine: "machine1", Seq: 3,
		Entries: []wire.UtilEntry{{Source: model.UtilCPU, Util: 0.1}}})
	if err := c.Send(buf); err != nil {
		t.Fatal(err)
	}
	send(reorderWindow+3, 0.7) // same socket, so the stale one was handled first
	if got := srv.Stats().UtilUpdates.Load(); got != before+1 {
		t.Errorf("UtilUpdates went %d -> %d, want the in-window report dropped", before, got)
	}
}

// TestBatchWithStrangerMachine: a report naming a machine the solver
// does not own is counted entry by entry and deduped like any other,
// without disturbing its neighbours in the datagram.
func TestBatchWithStrangerMachine(t *testing.T) {
	srv, _ := startServer(t)
	b := &wire.UtilBatch{Reports: []wire.UtilReport{
		{Machine: "machine1", Seq: 5, Entries: []wire.UtilEntry{{Source: model.UtilCPU, Util: 0.5}}},
		{Machine: "nobody", Seq: 5, Entries: []wire.UtilEntry{{Source: model.UtilCPU, Util: 0.6}, {Source: model.UtilDisk, Util: 0.7}}},
		{Machine: "machine3", Seq: 5, Entries: []wire.UtilEntry{{Source: model.UtilCPU, Util: 0.8}, {Source: "fan", Util: 0.9}}},
	}}
	buf, err := wire.MarshalUtilBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	// Serve is idle (nothing is sent), so the handler can be driven
	// directly.
	srv.handleUtilBatch(buf)
	srv.handleUtilBatch(buf) // a duplicate: every report is stale
	if got := srv.Stats().UtilUpdates.Load(); got != 3 {
		t.Errorf("UtilUpdates = %d, want 3", got)
	}
	if got := srv.Stats().Malformed.Load(); got != 3 {
		t.Errorf("Malformed = %d, want 3 (two stranger entries, one unknown source)", got)
	}
	for m, want := range map[string]units.Fraction{"machine1": 0.5, "machine3": 0.8, "machine2": 0} {
		if u, _ := srv.Solver().Utilization(m, model.UtilCPU); u != want {
			t.Errorf("%s cpu = %v, want %v", m, u, want)
		}
	}
	if srv.LastSeq("nobody") != 5 || srv.LastSeq("machine3") != 5 || srv.LastSeq("machine2") != 0 {
		t.Errorf("LastSeq nobody/machine3/machine2 = %d/%d/%d, want 5/5/0",
			srv.LastSeq("nobody"), srv.LastSeq("machine3"), srv.LastSeq("machine2"))
	}
}

// TestUtilHandlersDoNotAllocate: on a server with no tracer and no
// recorder, a batch and a standalone update are decoded into the
// server's scratch and applied without allocating.
func TestUtilHandlersDoNotAllocate(t *testing.T) {
	c, err := model.DefaultCluster("room", wire.MaxBatchMachines)
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
	b := &wire.UtilBatch{}
	for _, m := range sol.Machines() {
		b.Reports = append(b.Reports, wire.UtilReport{Machine: m, Entries: []wire.UtilEntry{
			{Source: model.UtilCPU, Util: 0.5}, {Source: model.UtilDisk, Util: 0.25},
		}})
	}
	u := &wire.UtilUpdate{Machine: "machine2", Entries: b.Reports[1].Entries}
	var batchBuf, updBuf []byte
	seq := uint32(0)
	tick := func() {
		seq++
		for i := range b.Reports {
			b.Reports[i].Seq = seq
			b.Reports[i].Entries[0].Util = units.Fraction(seq%10) / 10
		}
		batchBuf, _ = wire.AppendUtilBatch(batchBuf[:0], b)
		srv.handleUtilBatch(batchBuf)
		seq++
		u.Seq = seq
		updBuf, _ = wire.AppendUtilUpdate(updBuf[:0], u)
		srv.handleUtil(updBuf)
	}
	tick()
	if n := testing.AllocsPerRun(50, tick); n != 0 {
		t.Errorf("handleUtilBatch+handleUtil: %v allocs/op, want 0", n)
	}
	if got, want := srv.Stats().UtilUpdates.Load(), uint64(seq/2)*(wire.MaxBatchMachines+1); got != want {
		t.Errorf("UtilUpdates = %d, want %d", got, want)
	}
	if got := srv.Stats().Malformed.Load(); got != 0 {
		t.Errorf("Malformed = %d, want 0", got)
	}
}

func TestFiddleOverUDP(t *testing.T) {
	srv, addr := startServer(t)
	cl, err := fiddle.Dial(addr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.PinInlet("machine1", 38.6); err != nil {
		t.Fatal(err)
	}
	pinned, temp, err := srv.Solver().InletPinned("machine1")
	if err != nil || !pinned || temp != 38.6 {
		t.Errorf("pin did not apply: %v %v %v", pinned, temp, err)
	}
	if err := cl.UnpinInlet("machine1"); err != nil {
		t.Fatal(err)
	}
	if pinned, _, _ := srv.Solver().InletPinned("machine1"); pinned {
		t.Error("unpin did not apply")
	}
	if err := cl.SetSourceTemperature(model.NodeAC, 27); err != nil {
		t.Fatal(err)
	}
	if got, _ := srv.Solver().SourceTemperature(model.NodeAC); got != 27 {
		t.Errorf("AC = %v", got)
	}
	if err := cl.SetMachinePower("machine4", false); err != nil {
		t.Fatal(err)
	}
	if on, _ := srv.Solver().MachineOn("machine4"); on {
		t.Error("machine4 still on")
	}

	// Errors surface with the daemon's message.
	err = cl.PinInlet("ghost", 30)
	if err == nil || !strings.Contains(err.Error(), "unknown machine") {
		t.Errorf("unknown machine error = %v", err)
	}
}

func TestFiddleScriptOverUDP(t *testing.T) {
	srv, addr := startServer(t)
	cl, err := fiddle.Dial(addr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	script, err := fiddle.ParseScript(`#!/bin/bash
sleep 1
fiddle machine1 temperature inlet 30
sleep 2
fiddle machine1 temperature inlet 21.6
`)
	if err != nil {
		t.Fatal(err)
	}
	var slept time.Duration
	if err := script.Run(cl, func(d time.Duration) { slept += d }); err != nil {
		t.Fatal(err)
	}
	if slept != 3*time.Second {
		t.Errorf("slept %v, want 3s", slept)
	}
	pinned, temp, _ := srv.Solver().InletPinned("machine1")
	if !pinned || temp != 21.6 {
		t.Errorf("final pin = %v %v, want 21.6", pinned, temp)
	}
}

func TestListOverUDP(t *testing.T) {
	_, addr := startServer(t)
	machines, err := sensor.ListMachines(addr, sensor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(machines) != 4 {
		t.Errorf("machines = %v", machines)
	}
	nodes, err := sensor.ListNodes(addr, "machine1", sensor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 14 {
		t.Errorf("nodes = %d, want 14", len(nodes))
	}
	if _, err := sensor.ListNodes(addr, "ghost", sensor.Options{}); err == nil {
		t.Error("unknown machine: want error")
	}
	if _, err := sensor.ListNodes(addr, "", sensor.Options{}); err == nil {
		t.Error("empty machine via ListNodes: want error")
	}
}

func TestMalformedDatagramsCounted(t *testing.T) {
	srv, addr := startServer(t)
	c, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Send([]byte{0xFF})             // short
	c.Send([]byte{0x01, 0xEE, 0x00}) // unknown type
	// The retired single-probe sensor read (type 0x02).
	c.Send([]byte("\x01\x02\x08machine1\x03cpu"))
	waitFor(t, func() bool { return srv.Stats().Malformed.Load() >= 3 })
}

func TestTickerAdvancesSolver(t *testing.T) {
	c, _ := model.DefaultCluster("room", 1)
	sol, err := solver.New(c, solver.Config{Step: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Listen("127.0.0.1:0", sol)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	srv.StartTicker()
	waitFor(t, func() bool { return sol.Steps() >= 3 })
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	after := sol.Steps()
	time.Sleep(30 * time.Millisecond)
	if sol.Steps() != after {
		t.Error("ticker kept running after Close")
	}
}

// Helpers.

func dial(addr string) (*udprpc.Client, error) {
	return udprpc.Dial(addr, 0, 0)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestListReplyTooLargeReportsBadOp(t *testing.T) {
	// A machine with more nodes than fit in one reply datagram makes
	// the daemon answer with StatusBadOp instead of silence.
	m := model.DefaultServer("m1")
	for i := 0; i < 60; i++ {
		name := fmt.Sprintf("filler_air_node_with_a_long_name_%02d", i)
		m.AirNodes = append(m.AirNodes, model.AirNode{Name: name})
		m.AirEdges = append(m.AirEdges, model.AirEdge{From: model.NodeCPUAirDS, To: name, Fraction: 0.0001})
		m.AirEdges = append(m.AirEdges, model.AirEdge{From: name, To: model.NodeExhaust, Fraction: 1})
	}
	// Rebalance cpu_air_ds out fractions to sum to 1.
	for i := range m.AirEdges {
		if m.AirEdges[i].From == model.NodeCPUAirDS && m.AirEdges[i].To == model.NodeExhaust {
			m.AirEdges[i].Fraction = units.Fraction(1 - 60*0.0001)
		}
	}
	sol, err := solver.NewSingle(m, solver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Listen("127.0.0.1:0", sol)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })

	if _, err := sensor.ListNodes(srv.Addr().String(), "m1", sensor.Options{}); err == nil {
		t.Error("oversize node list should fail with a status error")
	}
}

func TestFiddleBadOpStatus(t *testing.T) {
	srv, addr := startServer(t)
	cl, err := fiddle.Dial(addr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// A structurally valid op with a semantically invalid value (sub
	// absolute zero) comes back as a rejection, not a transport error.
	err = cl.PinInlet("machine1", -400)
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Errorf("bad value error = %v", err)
	}
	if srv.Stats().FiddleOps.Load() == 0 {
		t.Error("fiddle op not counted")
	}
}

func TestServeReturnsNilAfterClose(t *testing.T) {
	c, _ := model.DefaultCluster("room", 1)
	sol, err := solver.New(c, solver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Listen("127.0.0.1:0", sol)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	time.Sleep(20 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve after Close = %v, want nil", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
}
