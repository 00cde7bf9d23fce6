package physical

import (
	"math"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

func TestStartsAtInlet(t *testing.T) {
	r := NewRefServer(1)
	for _, node := range []string{NodeCPUDie, model.NodeDiskPlatters, model.NodeCPUAir} {
		temp, ok := r.TrueTemp(node)
		if !ok {
			t.Fatalf("missing node %q", node)
		}
		if temp != 21.6 {
			t.Errorf("%s starts at %v", node, temp)
		}
	}
	if _, ok := r.TrueTemp("ghost"); ok {
		t.Error("ghost node exists")
	}
}

func TestHeatsUnderLoadCoolsWhenIdle(t *testing.T) {
	r := NewRefServer(1)
	r.SetUtilization(model.UtilCPU, 1)
	r.Run(30 * time.Minute)
	hot, _ := r.TrueTemp(NodeCPUDie)
	if hot < 40 {
		t.Errorf("die after 30min full load = %v, want hot", hot)
	}
	air, _ := r.TrueTemp(model.NodeCPUAir)
	if air <= 22 || air >= hot {
		t.Errorf("cpu air = %v, want between inlet and die %v", air, hot)
	}
	r.SetUtilization(model.UtilCPU, 0)
	r.Run(2 * time.Hour)
	cooled, _ := r.TrueTemp(NodeCPUDie)
	if cooled >= hot-10 {
		t.Errorf("die did not cool when idle: %v -> %v", hot, cooled)
	}
}

func TestSteadyStateRanges(t *testing.T) {
	// The hidden perturbations must keep the machine physically
	// plausible across seeds: full-load CPU air in the low-to-mid 30s,
	// disk platters in the 30s, like the paper's measurements.
	for seed := int64(1); seed <= 10; seed++ {
		r := NewRefServer(seed)
		r.SetUtilization(model.UtilCPU, 1)
		r.SetUtilization(model.UtilDisk, 1)
		r.Run(4 * time.Hour)
		air, _ := r.TrueTemp(model.NodeCPUAir)
		disk, _ := r.TrueTemp(model.NodeDiskPlatters)
		if air < 28 || air > 45 {
			t.Errorf("seed %d: cpu air = %v, outside plausible 28..45", seed, air)
		}
		if disk < 28 || disk > 48 {
			t.Errorf("seed %d: disk = %v, outside plausible 28..48", seed, disk)
		}
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) float64 {
		r := NewRefServer(seed)
		r.SetUtilization(model.UtilCPU, 0.7)
		r.Run(10 * time.Minute)
		v, _ := r.TrueTemp(NodeCPUDie)
		return float64(v)
	}
	if run(7) != run(7) {
		t.Error("same seed should reproduce exactly")
	}
	if run(7) == run(8) {
		t.Error("different seeds should differ")
	}
}

func TestSeedsPerturbConstants(t *testing.T) {
	a, b := NewRefServer(1), NewRefServer(2)
	if a.cpuBase == b.cpuBase || a.cpuExp == b.cpuExp {
		t.Error("hidden power constants identical across seeds")
	}
	if a.mixRetain == b.mixRetain {
		t.Error("mixing imperfection identical across seeds")
	}
}

func TestAirFractionsNormalized(t *testing.T) {
	r := NewRefServer(3)
	sums := map[int]float64{}
	for _, e := range r.airEdges {
		sums[e.from] += e.frac
	}
	for from, sum := range sums {
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("node %s outgoing fractions sum to %v", r.nodes[from].name, sum)
		}
	}
	// Flow conservation: exhaust receives the whole inlet flow.
	if math.Abs(r.relFlow[r.exhaust]-1) > 1e-9 {
		t.Errorf("exhaust relative flow = %v, want 1", r.relFlow[r.exhaust])
	}
}

func TestInletChangePropagates(t *testing.T) {
	r := NewRefServer(4)
	r.Run(30 * time.Minute)
	before, _ := r.TrueTemp(model.NodeCPUAir)
	r.SetInletTemp(38.6)
	r.Run(30 * time.Minute)
	after, _ := r.TrueTemp(model.NodeCPUAir)
	if after < float64ToC(float64(before)+10) {
		t.Errorf("inlet emergency barely moved cpu air: %v -> %v", before, after)
	}
}

func float64ToC(v float64) units.Celsius { return units.Celsius(v) }

func TestSensorBehaviour(t *testing.T) {
	r := NewRefServer(5)
	r.SetUtilization(model.UtilCPU, 1)
	r.Run(time.Hour)
	truth, _ := r.TrueTemp(model.NodeCPUAir)
	read := r.ReadCPUAirSensor()
	if math.Abs(float64(read-truth)) > 1.5 {
		t.Errorf("cpu air sensor off by %v (truth %v, read %v)", read-truth, truth, read)
	}
	diskTruth, _ := r.TrueTemp(model.NodeDiskPlatters)
	diskRead := r.ReadDiskSensor()
	if math.Abs(float64(diskRead-diskTruth)) > 3 {
		t.Errorf("disk sensor off by %v", diskRead-diskTruth)
	}
	// Disk sensor quantizes to 0.5 C.
	if rem := math.Mod(float64(diskRead)*2, 1); math.Abs(rem) > 1e-9 && math.Abs(rem-1) > 1e-9 {
		t.Errorf("disk reading %v not on a 0.5C grid", diskRead)
	}
}

func TestSensorLag(t *testing.T) {
	r := NewRefServer(6)
	// Heat hard for a minute; the lagged disk sensor must read below
	// the truth while temperature rises.
	r.SetUtilization(model.UtilDisk, 1)
	r.SetUtilization(model.UtilCPU, 1)
	r.Run(10 * time.Minute)
	truth, _ := r.TrueTemp(model.NodeDiskPlatters)
	read := r.ReadDiskSensor()
	if float64(read) > float64(truth)+0.5 {
		t.Errorf("lagged sensor reads above rising truth: read %v truth %v", read, truth)
	}
}

func TestUtilizationClamped(t *testing.T) {
	r := NewRefServer(7)
	r.SetUtilization(model.UtilCPU, 2.5)
	if r.utils[model.UtilCPU] != 1 {
		t.Errorf("util = %v", r.utils[model.UtilCPU])
	}
	r.SetUtilization(model.UtilCPU, -1)
	if r.utils[model.UtilCPU] != 0 {
		t.Errorf("util = %v", r.utils[model.UtilCPU])
	}
}

func TestCPUPowerSuperLinear(t *testing.T) {
	r := NewRefServer(8)
	r.SetUtilization(model.UtilCPU, 0.5)
	half := r.cpuPower()
	linearHalf := r.cpuBase + r.cpuSpan*0.5
	if half >= linearHalf {
		t.Errorf("P(0.5) = %v, want below the linear chord %v", half, linearHalf)
	}
	r.SetUtilization(model.UtilCPU, 1)
	if full := r.cpuPower(); math.Abs(full-(r.cpuBase+r.cpuSpan)) > 1e-9 {
		t.Errorf("P(1) = %v", full)
	}
}

func TestKEffMonotone(t *testing.T) {
	if kEff(1, 0) >= kEff(1, 20) || kEff(1, 20) >= kEff(1, 40) {
		t.Error("kEff not increasing in |dT|")
	}
	if kEff(1, 40) != kEff(1, 80) {
		t.Error("kEff should saturate at dT=40")
	}
	if kEff(1, -20) != kEff(1, 20) {
		t.Error("kEff should be symmetric in dT")
	}
}

func TestNowAdvances(t *testing.T) {
	r := NewRefServer(9)
	r.Run(90 * time.Second)
	if r.Now() != 90*time.Second {
		t.Errorf("Now = %v", r.Now())
	}
}

// SetInletTemp changes the room air feeding the machine.
func (r *RefServer) SetInletTemp(t units.Celsius) { r.inletTemp = float64(t) }

// Run advances d of emulated time.
func (r *RefServer) Run(d time.Duration) {
	for i := 0; i < int(d/time.Second); i++ {
		r.Step()
	}
}

// TrueTemp exposes a node's exact temperature for tests and analysis;
// a real machine would not offer this.
func (r *RefServer) TrueTemp(node string) (units.Celsius, bool) {
	i, ok := r.index[node]
	if !ok {
		return 0, false
	}
	return units.Celsius(r.nodes[i].temp), true
}
