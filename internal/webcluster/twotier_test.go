package webcluster

import (
	"math"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/lvs"
)

func newTwoTier(t *testing.T, cfg TwoTierConfig) *TwoTier {
	t.Helper()
	tt, err := NewTwoTier(lvs.New(), lvs.New(),
		[]string{"web1", "web2"}, []string{"app1", "app2", "app3"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tt
}

func TestTwoTierValidation(t *testing.T) {
	if _, err := NewTwoTier(lvs.New(), lvs.New(),
		[]string{"m1"}, []string{"m1"}, TwoTierConfig{}); err == nil {
		t.Error("shared machine name across tiers: want error")
	}
	if _, err := NewTwoTier(lvs.New(), lvs.New(), nil, []string{"a"}, TwoTierConfig{}); err == nil {
		t.Error("empty frontend: want error")
	}
}

func TestTwoTierDynamicFlowsToBackend(t *testing.T) {
	tt := newTwoTier(t, TwoTierConfig{})
	// 40 dynamic requests: the frontend does 5ms each (cheap), then the
	// backend does 20ms CPU + 10ms disk each.
	tick := tt.TickSecond(burst(40, true))
	if tick.BackendJobs != 40 {
		t.Errorf("backend jobs = %d, want 40", tick.BackendJobs)
	}
	var frontCPU, backCPU, backDisk float64
	for _, st := range tick.Front.PerServer {
		frontCPU += float64(st.CPUUtil)
	}
	for _, st := range tick.Back.PerServer {
		backCPU += float64(st.CPUUtil)
		backDisk += float64(st.DiskUtil)
	}
	// Frontend: 40*5ms = 0.2 cpu-seconds; backend: 40*20ms = 0.8.
	if math.Abs(frontCPU-0.2) > 0.02 {
		t.Errorf("frontend cpu = %v, want ~0.2", frontCPU)
	}
	if math.Abs(backCPU-0.8) > 0.05 {
		t.Errorf("backend cpu = %v, want ~0.8", backCPU)
	}
	if math.Abs(backDisk-0.4) > 0.05 {
		t.Errorf("backend disk = %v, want ~0.4", backDisk)
	}
	if got := tt.BackendIssued(); got != 40 {
		t.Errorf("BackendIssued = %d", got)
	}
}

func TestTwoTierStaticStaysInFrontend(t *testing.T) {
	tt := newTwoTier(t, TwoTierConfig{})
	tick := tt.TickSecond(burst(50, false))
	if tick.BackendJobs != 0 {
		t.Errorf("static requests issued %d backend jobs", tick.BackendJobs)
	}
	for i, st := range tick.Back.PerServer {
		if st.CPUUtil != 0 {
			t.Errorf("backend %s busy on static traffic", tt.Back().Machines()[i])
		}
	}
	if tt.Totals().Dropped != 0 {
		t.Error("drops on a light static tick")
	}
}

func TestTwoTierBackendOverloadDropsEndToEnd(t *testing.T) {
	// A tiny backend queue forces refusals; end-to-end accounting must
	// count them as dropped even though the frontend served them.
	tt, err := NewTwoTier(lvs.New(), lvs.New(),
		[]string{"web1"}, []string{"app1"},
		TwoTierConfig{BackendQueueCap: 5, BackendCPU: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		tt.TickSecond(burst(100, true))
	}
	totals := tt.Totals()
	if totals.Dropped == 0 {
		t.Error("backend overload produced no end-to-end drops")
	}
	if totals.Completed+totals.Dropped > totals.Arrived {
		t.Errorf("accounting broken: %+v", totals)
	}
}

func TestTwoTierFreonShiftsBackendLoad(t *testing.T) {
	// The multi-tier story: a backend machine gets "hot" (here we just
	// deweight it the way admd would) and new backend jobs shift to its
	// peers, without touching the frontend.
	tt := newTwoTier(t, TwoTierConfig{})
	tt.Back().Balancer().SetWeight("app1", 0.1)
	var app1, app2 float64
	for i := 0; i < 20; i++ {
		tick := tt.TickSecond(burst(60, true))
		app1 += float64(tick.Back.PerServer[0].CPUUtil)
		app2 += float64(tick.Back.PerServer[1].CPUUtil)
	}
	if app1 >= app2/2 {
		t.Errorf("deweighted backend still loaded: app1=%v app2=%v", app1, app2)
	}
	if tt.Totals().Dropped != 0 {
		t.Error("shifting backend load dropped requests")
	}
}

func TestTwoTierDefaults(t *testing.T) {
	cfg := TwoTierConfig{}.withDefaults()
	if cfg.Frontend.DynamicCPU != 5*time.Millisecond ||
		cfg.BackendCPU != 20*time.Millisecond ||
		cfg.BackendDisk != 10*time.Millisecond ||
		cfg.BackendQueueCap != 200 {
		t.Errorf("defaults = %+v", cfg)
	}
}
