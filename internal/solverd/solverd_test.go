package solverd

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/fiddle"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/monitord"
	"github.com/darklab/mercury/internal/procfs"
	"github.com/darklab/mercury/internal/sensor"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/telemetry"
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

// TestStateNamesKernel: /state names the step kernel, as solver.Kernel
// does.
func TestStateNamesKernel(t *testing.T) {
	srv, _ := startServer(t)
	got := srv.State().Kernel
	if got != "avx" && got != "portable" {
		t.Fatalf("State().Kernel = %q, want avx or portable", got)
	}
	if want := solver.Kernel(); got != want {
		t.Errorf("State().Kernel = %q, solver.Kernel() = %q", got, want)
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

// marshalReport encodes one machine's cpu utilization as a batch of
// one, the datagram a per-machine monitord sends.
func marshalReport(machine string, seq uint32, cpu float64) ([]byte, error) {
	return wire.MarshalUtilBatch(&wire.UtilBatch{Reports: []wire.UtilReport{{
		Machine: machine,
		Seq:     seq,
		Entries: []wire.UtilEntry{{Source: model.UtilCPU, Util: units.Fraction(cpu)}},
	}}})
}

func TestStaleUpdatesDropped(t *testing.T) {
	srv, addr := startServer(t)
	send := func(seq uint32, util float64) {
		t.Helper()
		buf, err := marshalReport("machine1", seq, util)
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
		buf, err := marshalReport("machine1", seq, util)
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
	buf, _ := marshalReport("machine1", 3, 0.1)
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
// recorder, a full batch and a batch of one are decoded into the
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
	one := &wire.UtilBatch{Reports: []wire.UtilReport{{Machine: "machine2", Entries: b.Reports[1].Entries}}}
	var batchBuf, oneBuf []byte
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
		one.Reports[0].Seq = seq
		oneBuf, _ = wire.AppendUtilBatch(oneBuf[:0], one)
		srv.handleUtilBatch(oneBuf)
	}
	tick()
	if n := testing.AllocsPerRun(50, tick); n != 0 {
		t.Errorf("handleUtilBatch of %d and of one: %v allocs/op, want 0", len(b.Reports), n)
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

	if err := cl.Apply(&wire.FiddleOp{Op: wire.OpPinInlet, Strings: []string{"machine1"}, Floats: []float64{38.6}}); err != nil {
		t.Fatal(err)
	}
	if ms := srv.Solver().SaveState().Machines["machine1"]; !ms.InletPinned || ms.InletPin != 38.6 {
		t.Errorf("pin did not apply: %v %v", ms.InletPinned, ms.InletPin)
	}
	if err := cl.Apply(&wire.FiddleOp{Op: wire.OpUnpinInlet, Strings: []string{"machine1"}}); err != nil {
		t.Fatal(err)
	}
	if srv.Solver().SaveState().Machines["machine1"].InletPinned {
		t.Error("unpin did not apply")
	}
	if err := cl.Apply(&wire.FiddleOp{Op: wire.OpSetSourceTemp, Strings: []string{model.NodeAC}, Floats: []float64{27}}); err != nil {
		t.Fatal(err)
	}
	if got := srv.Solver().SaveState().Sources[model.NodeAC]; got != 27 {
		t.Errorf("AC = %v", got)
	}
	if err := cl.Apply(&wire.FiddleOp{Op: wire.OpSetMachinePower, Strings: []string{"machine4"}, Floats: []float64{0}}); err != nil {
		t.Fatal(err)
	}
	if srv.Solver().SaveState().Machines["machine4"].On {
		t.Error("machine4 still on")
	}

	// Errors surface with the daemon's message.
	err = cl.Apply(&wire.FiddleOp{Op: wire.OpPinInlet, Strings: []string{"ghost"}, Floats: []float64{30}})
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
	if ms := srv.Solver().SaveState().Machines["machine1"]; !ms.InletPinned || ms.InletPin != 21.6 {
		t.Errorf("final pin = %v %v, want 21.6", ms.InletPinned, ms.InletPin)
	}
}

// sendRetiredList sends a well-formed list-nodes request (0x06, the
// retired list protocol) for machine to the daemon at addr, then a
// many-read of reader/cpu on the same socket. The daemon handles one
// socket's datagrams in order, so the first reply must be the
// many-read's: the list request got none.
func sendRetiredList(t *testing.T, addr, machine, reader string) {
	t.Helper()
	raw, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	list := append([]byte{wire.Version, 0x06, byte(len(machine))}, machine...)
	if _, err := raw.Write(list); err != nil {
		t.Fatal(err)
	}
	read, err := wire.AppendSensorReadMany(nil, &wire.SensorReadMany{
		Probes: []wire.Probe{{Machine: reader, Node: model.NodeCPU}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(read); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, wire.MaxReplySize)
	n, err := raw.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ, err := wire.Type(buf[:n]); err != nil || typ != wire.MsgSensorReplyMany {
		t.Errorf("first reply after a 0x06 request has type %#x (%v), want the many-read's %#x", typ, err, wire.MsgSensorReplyMany)
	}
}

// TestListOverUDP: the list protocol is retired, so a list request over
// UDP is counted as malformed and never answered.
func TestListOverUDP(t *testing.T) {
	srv, addr := startServer(t)
	for _, machine := range []string{"", "machine1", "ghost"} {
		before := srv.Stats().Malformed.Load()
		sendRetiredList(t, addr, machine, "machine1")
		if got := srv.Stats().Malformed.Load(); got != before+1 {
			t.Errorf("list %q: Malformed %d -> %d, want one more", machine, before, got)
		}
	}
}

// TestListReplyTooLargeReportsBadOp: a machine with more nodes than fit
// in one reply datagram once drew a StatusBadOp list reply. With the
// list protocol retired, its list request too is counted as malformed
// and gets no reply, while the machine still reads.
func TestListReplyTooLargeReportsBadOp(t *testing.T) {
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

	sendRetiredList(t, srv.Addr().String(), "m1", "m1")
	if got := srv.Stats().Malformed.Load(); got != 1 {
		t.Errorf("Malformed = %d after a list request, want 1", got)
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
	// The retired 128-byte utilization update (type 0x01), well formed:
	// counted as malformed, never applied.
	before := srv.Stats().UtilUpdates.Load()
	upd, err := wire.MarshalUtilUpdate(&wire.UtilUpdate{Machine: "machine1", Seq: 1,
		Entries: []wire.UtilEntry{{Source: model.UtilCPU, Util: 0.9}}})
	if err != nil {
		t.Fatal(err)
	}
	c.Send(upd)
	waitFor(t, func() bool { return srv.Stats().Malformed.Load() >= 4 })
	if got := srv.Stats().UtilUpdates.Load(); got != before {
		t.Errorf("UtilUpdates went %d -> %d on a 0x01 update, want unchanged", before, got)
	}
	if u, _ := srv.Solver().Utilization("machine1", model.UtilCPU); u != 0 {
		t.Errorf("machine1 cpu = %v after a 0x01 update, want 0", u)
	}
	// The retired list-nodes request (type 0x06), well formed: counted
	// as malformed and never answered.
	sendRetiredList(t, addr, "machine1", "machine1")
	if got := srv.Stats().Malformed.Load(); got != 5 {
		t.Errorf("Malformed = %d after a 0x06 request, want 5", got)
	}
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
	waitFor(t, func() bool { return sol.SaveState().Steps >= 3 })
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	after := sol.SaveState().Steps
	time.Sleep(30 * time.Millisecond)
	if sol.SaveState().Steps != after {
		t.Error("ticker kept running after Close")
	}
}

// Helpers.

func dial(addr string) (*udprpc.Client, error) {
	return udprpc.DialClock(addr, 0, 0, clock.Real{})
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

func TestFiddleBadOpStatus(t *testing.T) {
	srv, addr := startServer(t)
	cl, err := fiddle.Dial(addr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// A structurally valid op with a semantically invalid value (sub
	// absolute zero) comes back as a rejection, not a transport error.
	err = cl.Apply(&wire.FiddleOp{Op: wire.OpPinInlet, Strings: []string{"machine1"}, Floats: []float64{-400}})
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

// Temps returns the daemon's temperature table (nil without
// telemetry).
func (s *Server) Temps() *telemetry.TempTable { return s.temps }

// LastSeq returns the last utilization-update sequence number accepted
// from a machine's monitord (0 if none).
func (s *Server) LastSeq(machine string) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.names[machine]; ok {
		return s.lastSeq[i].seq
	}
	return s.strangers[machine]
}
