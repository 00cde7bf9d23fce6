package solverd_test

import (
	"math"
	"net"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/solverd"
	"github.com/darklab/mercury/internal/units"
	"github.com/darklab/mercury/internal/wire"
)

// waitSteps spins until every server's ticker has taken want steps, so
// the virtual clock can be advanced again without racing the barrier.
func waitSteps(t *testing.T, servers []*solverd.Server, want uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := true
		for _, s := range servers {
			if s.Stats().SolverSteps.Load() < want {
				done = false
			}
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for step %d", want)
		}
		time.Sleep(10 * time.Microsecond)
	}
}

// TestShardedDaemonsBitIdentical runs one recirculating 8-machine rack
// split across two solverd processes exchanging boundary exhausts over
// real loopback UDP, and requires every owned temperature to match a
// directly stepped reference solver bit for bit — through a mid-run
// utilization change and an AC setpoint broadcast.
func TestShardedDaemonsBitIdentical(t *testing.T) {
	c, err := model.RackCluster("room", 1, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	regions, err := solver.PartitionRegions(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := solver.New(c, solver.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewVirtual()
	servers := make([]*solverd.Server, 2)
	for i := range servers {
		sol, err := solver.New(c, solver.Config{Workers: 1, Regions: regions, RegionIndex: i})
		if err != nil {
			t.Fatal(err)
		}
		if servers[i], err = solverd.Listen("127.0.0.1:0", sol, solverd.WithClock(clk)); err != nil {
			t.Fatal(err)
		}
		defer servers[i].Close()
	}
	addrs := map[int]string{}
	for i, s := range servers {
		addrs[i] = s.Addr().String()
	}
	for _, s := range servers {
		if err := s.SetPeers(addrs); err != nil {
			t.Fatal(err)
		}
		go s.Serve()
		s.StartTicker()
	}
	owner := map[string]*solverd.Server{}
	for i, names := range regions {
		for _, n := range names {
			owner[n] = servers[i]
		}
	}

	const ticks = 300
	for tick := uint64(1); tick <= ticks; tick++ {
		switch tick {
		case 50:
			m := model.RackMachine(1, 4)
			if err := ref.SetUtilization(m, model.UtilCPU, 0.9); err != nil {
				t.Fatal(err)
			}
			if err := owner[m].Solver().SetUtilization(m, model.UtilCPU, 0.9); err != nil {
				t.Fatal(err)
			}
		case 150:
			if err := ref.SetSourceTemperature(model.NodeAC, 27); err != nil {
				t.Fatal(err)
			}
			for _, s := range servers {
				if err := s.ApplyFiddle(&wire.FiddleOp{
					Op:      wire.OpSetSourceTemp,
					Strings: []string{model.NodeAC},
					Floats:  []float64{27},
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		ref.Step()
		clk.Advance(time.Second)
		waitSteps(t, servers, tick)
	}
	// Compare at the end (any divergence compounds tick over tick, so
	// a final bitwise match proves every intermediate tick matched).
	for _, m := range c.Machines {
		want, err := ref.Temperatures(m.Name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := owner[m.Name].Solver().Temperatures(m.Name)
		if err != nil {
			t.Fatal(err)
		}
		for node, w := range want {
			if got[node] != w {
				t.Fatalf("%s/%s: sharded %v != reference %v", m.Name, node, got[node], w)
			}
		}
	}
	for _, s := range servers {
		if n := s.Stats().BoundaryMissed.Load(); n != 0 {
			t.Errorf("boundary barrier missed %d times", n)
		}
	}
	// The cut is one-directional: exhaust recirculates UP the rack, so
	// only the lower region exports and only the upper one stages.
	if out := servers[0].Stats().BoundaryOut.Load(); out < ticks {
		t.Errorf("shard 0 sent %d boundary datagrams over %d ticks", out, ticks)
	}
	// The final tick's datagram may still be in flight when the step
	// counters satisfy waitSteps — nothing ever waits for tick N's
	// exhausts — hence ticks-1.
	if in := servers[1].Stats().BoundaryIn.Load(); in < ticks-1 {
		t.Errorf("shard 1 staged %d boundary datagrams over %d ticks", in, ticks)
	}
	if snap := servers[1].State(); snap.Region != 1 || snap.Regions != 2 {
		t.Errorf("State() region labels = (%d, %d), want (1, 2)", snap.Region, snap.Regions)
	}
}

// TestUtilBatchApplied checks the batched utilization path end to end:
// one MsgUtilBatch datagram updates several machines through the
// per-machine sequence dedupe.
func TestUtilBatchApplied(t *testing.T) {
	c, err := model.RackCluster("room", 1, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solver.New(c, solver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := solverd.Listen("127.0.0.1:0", sol)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve()

	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	send := func(b *wire.UtilBatch) {
		t.Helper()
		buf, err := wire.MarshalUtilBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	m1, m2 := model.RackMachine(1, 1), model.RackMachine(1, 2)
	send(&wire.UtilBatch{Reports: []wire.UtilReport{
		{Machine: m1, Seq: 1, Entries: []wire.UtilEntry{{Source: model.UtilCPU, Util: 0.5}}},
		{Machine: m2, Seq: 1, Entries: []wire.UtilEntry{{Source: model.UtilCPU, Util: 0.25}}},
	}})
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().UtilUpdates.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("batch never applied")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if got := srv.Stats().UtilBatches.Load(); got != 1 {
		t.Errorf("UtilBatches = %d, want 1", got)
	}
	if got := srv.LastSeq(m1); got != 1 {
		t.Errorf("LastSeq(%s) = %d, want 1", m1, got)
	}
	// A replayed batch with the same sequence must be deduped.
	send(&wire.UtilBatch{Reports: []wire.UtilReport{
		{Machine: m1, Seq: 1, Entries: []wire.UtilEntry{{Source: model.UtilCPU, Util: 0.9}}},
	}})
	deadline = time.Now().Add(5 * time.Second)
	for srv.Stats().UtilBatches.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second batch never received")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if got := srv.Stats().UtilUpdates.Load(); got != 2 {
		t.Errorf("UtilUpdates = %d after stale replay, want 2", got)
	}
}

// TestNonFiniteBoundaryCountsAsMissed: a boundary frame carrying a NaN
// exhaust is refused by the solver, and the tick that steps without it
// counts the boundary as missed (the health alert's counter) as well
// as malformed; no NaN reaches a temperature.
func TestNonFiniteBoundaryCountsAsMissed(t *testing.T) {
	c, err := model.RackCluster("room", 3, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	regions, err := solver.PartitionRegions(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solver.New(c, solver.Config{Workers: 1, Regions: regions, RegionIndex: 1})
	if err != nil {
		t.Fatal(err)
	}
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	s, err := solverd.Listen("127.0.0.1:0", sol, solverd.WithClock(clock.NewVirtual()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.SetPeers(map[int]string{0: peer.LocalAddr().String()}); err != nil {
		t.Fatal(err)
	}
	go s.Serve()

	if !s.Tick() {
		t.Fatal("tick 1 refused")
	}
	in := sol.BoundaryInFrom(0)
	if len(in) == 0 {
		t.Fatal("region 1 imports nothing from region 0")
	}
	be := wire.BoundaryExchange{Region: 0, Tick: 1}
	for i, mi := range in {
		temp := units.Celsius(30)
		if i == len(in)-1 {
			temp = units.Celsius(math.NaN())
		}
		be.Records = append(be.Records, wire.BoundaryRecord{Machine: uint32(mi), Temp: temp})
	}
	frame, err := wire.MarshalBoundaryExchange(&be)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := peer.WriteToUDP(frame, s.Addr()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().BoundaryIn.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the frame was never staged")
		}
		time.Sleep(time.Millisecond)
	}
	if !s.Tick() {
		t.Fatal("tick 2 refused")
	}
	if n := s.Stats().BoundaryMissed.Load(); n != 1 {
		t.Errorf("BoundaryMissed = %d, want 1", n)
	}
	if n := s.Stats().Malformed.Load(); n != 1 {
		t.Errorf("Malformed = %d, want 1", n)
	}
	for _, name := range sol.Machines() {
		temps, err := sol.Temperatures(name)
		if err != nil {
			t.Fatal(err)
		}
		for node, v := range temps {
			if !v.Valid() {
				t.Fatalf("%s/%s = %v after the refused import", name, node, v)
			}
		}
	}
}
