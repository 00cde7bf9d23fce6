package webcluster

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/lvs"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/workload"
)

func newCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	names := make([]string, n)
	for i := range names {
		names[i] = machineName(i)
	}
	c, err := New(lvs.New(), names, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func machineName(i int) string {
	return []string{"machine1", "machine2", "machine3", "machine4", "machine5"}[i]
}

func burst(n int, dynamic bool) []workload.Request {
	reqs := make([]workload.Request, n)
	for i := range reqs {
		reqs[i] = workload.Request{At: time.Duration(i), Dynamic: dynamic}
	}
	return reqs
}

func TestNewValidation(t *testing.T) {
	if _, err := New(lvs.New(), nil, Config{}); err == nil {
		t.Error("no machines: want error")
	}
	if _, err := New(lvs.New(), []string{"a", "a"}, Config{}); err == nil {
		t.Error("duplicate machines: want error")
	}
	// The cluster addresses servers by balancer index, so it needs the
	// balancer to itself.
	used := lvs.New()
	if err := used.AddServer("other", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := New(used, []string{"a"}, Config{}); err == nil {
		t.Error("balancer with servers already registered: want error")
	}
}

func TestUtilizationMatchesLoad(t *testing.T) {
	c := newCluster(t, 1)
	// 20 dynamic requests at 25ms = 500ms of CPU: 50% utilization.
	tick := c.TickSecond(burst(20, true))
	st := tick.PerServer[0]
	if math.Abs(float64(st.CPUUtil)-0.5) > 1e-9 {
		t.Errorf("cpu util = %v, want 0.50", st.CPUUtil)
	}
	if st.Completed != 20 || st.Conns != 0 {
		t.Errorf("completed=%d conns=%d", st.Completed, st.Conns)
	}
	// Static requests exercise the disk: 50 static = 100ms cpu, 400ms disk.
	tick = c.TickSecond(burst(50, false))
	st = tick.PerServer[0]
	if math.Abs(float64(st.CPUUtil)-0.1) > 1e-9 {
		t.Errorf("cpu util = %v, want 0.10", st.CPUUtil)
	}
	if math.Abs(float64(st.DiskUtil)-0.4) > 1e-9 {
		t.Errorf("disk util = %v, want 0.40", st.DiskUtil)
	}
}

func TestOverloadQueuesAndCarriesOver(t *testing.T) {
	c := newCluster(t, 1)
	// 60 dynamic requests = 1.5s of work: one second's worth completes,
	// the rest stays queued.
	tick := c.TickSecond(burst(60, true))
	st := tick.PerServer[0]
	if st.CPUUtil < 0.999 {
		t.Errorf("cpu util = %v, want saturated", st.CPUUtil)
	}
	if st.Conns == 0 || st.Completed >= 60 {
		t.Errorf("expected backlog: completed=%d conns=%d", st.Completed, st.Conns)
	}
	// Next tick with no arrivals drains the backlog.
	tick = c.TickSecond(nil)
	st = tick.PerServer[0]
	if st.Conns != 0 {
		t.Errorf("backlog not drained: %d", st.Conns)
	}
	if c.Totals().Completed != 60 {
		t.Errorf("total completed = %d", c.Totals().Completed)
	}
}

func TestQueueCapDrops(t *testing.T) {
	c, err := New(lvs.New(), []string{"machine1"}, Config{QueueCap: 10})
	if err != nil {
		t.Fatal(err)
	}
	tick := c.TickSecond(burst(200, true))
	if tick.Dropped == 0 {
		t.Error("queue cap did not drop anything")
	}
	if got := c.Totals().DropRate(); got == 0 {
		t.Error("drop rate = 0")
	}
	// Balancer connection accounting stayed consistent.
	conns, _ := c.Balancer().ActiveConns("machine1")
	queued, _ := c.Conns("machine1")
	if conns != queued {
		t.Errorf("balancer conns %d != queue %d", conns, queued)
	}
}

func TestLoadSpreadsAcrossServers(t *testing.T) {
	c := newCluster(t, 4)
	tick := c.TickSecond(burst(80, true))
	for i, name := range c.Machines() {
		st := tick.PerServer[i]
		// 80 requests x 25ms over 4 servers = 0.5 each.
		if math.Abs(float64(st.CPUUtil)-0.5) > 0.1 {
			t.Errorf("%s cpu = %v, want ~0.5", name, st.CPUUtil)
		}
	}
}

func TestWeightShiftsUtilization(t *testing.T) {
	c := newCluster(t, 2)
	c.Balancer().SetWeight("machine1", 0.2)
	var u1, u2 float64
	for i := 0; i < 10; i++ {
		tick := c.TickSecond(burst(40, true))
		u1 += float64(tick.PerServer[0].CPUUtil)
		u2 += float64(tick.PerServer[1].CPUUtil)
	}
	if u1 >= u2*0.5 {
		t.Errorf("deweighted server still loaded: %v vs %v", u1, u2)
	}
}

func TestPowerOffDropsQueueAndRefuses(t *testing.T) {
	c := newCluster(t, 2)
	c.TickSecond(burst(100, true)) // build backlog
	before := c.Totals().Dropped
	if err := c.SetPower("machine1", false); err != nil {
		t.Fatal(err)
	}
	if on, _ := c.On("machine1"); on {
		t.Error("still on")
	}
	if c.Totals().Dropped <= before {
		t.Error("queued requests not counted as dropped on power-off")
	}
	if conns, _ := c.Balancer().ActiveConns("machine1"); conns != 0 {
		t.Errorf("balancer conns = %d after power-off", conns)
	}
	// Off server picked by the balancer refuses requests (caller is
	// expected to quiesce; this is the safety net).
	tick := c.TickSecond(burst(10, true))
	if tick.PerServer[0].CPUUtil != 0 {
		t.Error("off server did work")
	}
	// Power back on.
	if err := c.SetPower("machine1", true); err != nil {
		t.Fatal(err)
	}
	if err := c.SetPower("ghost", true); err == nil {
		t.Error("unknown machine: want error")
	}
}

func TestQuiescedServerDrains(t *testing.T) {
	c := newCluster(t, 2)
	c.TickSecond(burst(90, true)) // ~1.1s of work each
	c.Balancer().Quiesce("machine1")
	c.TickSecond(nil)
	c.TickSecond(nil)
	if conns, _ := c.Conns("machine1"); conns != 0 {
		t.Errorf("quiesced server did not drain: %d conns", conns)
	}
	// All later requests go to machine2.
	tick := c.TickSecond(burst(10, true))
	if tick.PerServer[0].Assigned != 0 {
		t.Error("quiesced server got assignments")
	}
}

func TestUtilizationsAccessor(t *testing.T) {
	c := newCluster(t, 1)
	c.TickSecond(burst(20, true))
	utils, err := c.Utilizations("machine1")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(utils[model.UtilCPU])-0.5) > 1e-9 {
		t.Errorf("cpu = %v", utils[model.UtilCPU])
	}
	if _, err := c.Utilizations("ghost"); err == nil {
		t.Error("unknown machine: want error")
	}
	if _, err := c.Conns("ghost"); err == nil {
		t.Error("unknown machine: want error")
	}
	if _, err := c.On("ghost"); err == nil {
		t.Error("unknown machine: want error")
	}
}

func TestMeanCPUPerRequest(t *testing.T) {
	got := Config{}.MeanCPUPerRequest(0.3)
	want := 0.3*0.025 + 0.7*0.002
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("mean cpu = %v, want %v", got, want)
	}
}

func TestFullTraceThroughput(t *testing.T) {
	// A full diurnal trace sized for ~70% peak on 4 servers must be
	// served without drops when nothing interferes (the Figure 11
	// baseline property).
	c := newCluster(t, 4)
	cfg := workload.WebConfig{
		Duration: 2000 * time.Second,
		PeakRPS:  4 * 0.7 / Config{}.MeanCPUPerRequest(0.3),
		Seed:     1,
	}
	reqs := workload.GenerateWeb(cfg)
	idx := 0
	var peakMinute float64 // highest one-minute average utilization
	var windowSum float64
	windowTicks := 0
	for s := 0; s < 2000; s++ {
		var batch []workload.Request
		limit := time.Duration(s+1) * time.Second
		for idx < len(reqs) && reqs[idx].At < limit {
			batch = append(batch, reqs[idx])
			idx++
		}
		tick := c.TickSecond(batch)
		var tickAvg float64
		for _, st := range tick.PerServer {
			tickAvg += float64(st.CPUUtil)
		}
		windowSum += tickAvg / 4
		windowTicks++
		if windowTicks == 60 {
			if avg := windowSum / 60; avg > peakMinute {
				peakMinute = avg
			}
			windowSum, windowTicks = 0, 0
		}
	}
	totals := c.Totals()
	if totals.Dropped != 0 {
		t.Errorf("dropped %d of %d requests with full capacity", totals.Dropped, totals.Arrived)
	}
	// The paper sets "the load peak ... at 70% utilization with 4
	// servers"; utilization is the minute-averaged quantity Freon sees.
	if peakMinute < 0.6 || peakMinute > 0.8 {
		t.Errorf("peak minute-average util = %v, want around 0.7", peakMinute)
	}
}

func TestSetSpeedThrottlesService(t *testing.T) {
	c := newCluster(t, 1)
	if err := c.SetSpeed("machine1", 0.5); err != nil {
		t.Fatal(err)
	}
	if sp, _ := c.Speed("machine1"); sp != 0.5 {
		t.Errorf("Speed = %v", sp)
	}
	// 30 dynamic requests = 750ms of work; at half speed only ~375ms
	// worth completes in a second and the rest queues.
	tick := c.TickSecond(burst(30, true))
	st := tick.PerServer[0]
	if st.Conns == 0 {
		t.Error("half-speed server should have a backlog")
	}
	if st.Completed >= 30 {
		t.Errorf("completed %d of 30 at half speed", st.Completed)
	}
	// Utilization reports busy *time*, which saturates at 1.
	if st.CPUUtil < 0.999 {
		t.Errorf("cpu util = %v, want saturated", st.CPUUtil)
	}
	// Restore full speed: backlog drains.
	if err := c.SetSpeed("machine1", 1); err != nil {
		t.Fatal(err)
	}
	c.TickSecond(nil)
	if conns, _ := c.Conns("machine1"); conns != 0 {
		t.Errorf("backlog not drained: %d", conns)
	}
}

// A speed outside (0, 1], NaN and the infinities included, is refused
// with an error naming the machine and leaves the speed as it was.
func TestSetSpeedValidation(t *testing.T) {
	for _, tc := range []struct {
		speed float64
		ok    bool
	}{
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{0, false},
		{1.5, false},
		{0.5, true},
		{1, true},
	} {
		c := newCluster(t, 1)
		if err := c.SetSpeed("machine1", 0.75); err != nil {
			t.Fatal(err)
		}
		err := c.SetSpeed("machine1", tc.speed)
		if tc.ok != (err == nil) {
			t.Errorf("SetSpeed(%v): error %v, want ok=%v", tc.speed, err, tc.ok)
			continue
		}
		want := tc.speed
		if !tc.ok {
			want = 0.75
			if !strings.Contains(err.Error(), `"machine1"`) {
				t.Errorf("SetSpeed(%v): error %q does not name the machine", tc.speed, err)
			}
		}
		if got, _ := c.Speed("machine1"); got != want {
			t.Errorf("after SetSpeed(%v): Speed = %v, want %v", tc.speed, got, want)
		}
	}
	c := newCluster(t, 1)
	if err := c.SetSpeed("ghost", 0.5); err == nil {
		t.Error("unknown machine: want error")
	}
	if _, err := c.Speed("ghost"); err == nil {
		t.Error("unknown machine: want error")
	}
}
