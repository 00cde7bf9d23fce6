// Package physical implements the measurement stand-in for the paper's
// real Pentium III validation server (Section 3.1). Because this
// reproduction has no physical testbed, validation measures Mercury
// against a deliberately *finer and structurally different* thermal
// model of the same machine:
//
//   - the CPU is split into a die and a heat sink (Mercury lumps them),
//   - heat-transfer coefficients vary mildly with the temperature
//     difference (Mercury assumes constant k),
//   - the CPU's utilization-to-power curve is slightly super-linear
//     (Mercury assumes Equation 4's straight line),
//   - air regions mix imperfectly, retaining a share of their previous
//     air (Mercury assumes perfect mixing),
//   - the underlying constants are seeded perturbations of Table 1, so
//     Mercury's inputs are *wrong* until the calibration phase fits
//     them, exactly as with a real machine, and
//   - integration runs at a 100 ms substep, 10x finer than Mercury.
//
// Readings come through sensor models with quantization, noise, and a
// first-order lag, mirroring the paper's digital thermometers (1.5 C
// accuracy) and in-disk sensors (3 C accuracy).
package physical

import (
	"math"
	"math/rand"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

// Node names of the fine-grained model. The externally observable
// points match the paper's instrumentation: the air above the CPU heat
// sink, and the disk's internal sensor.
const (
	NodeCPUDie  = "cpu_die"
	NodeCPUSink = "cpu_sink"
)

type fineNode struct {
	name string
	mc   float64 // thermal mass, J/K; 0 for air nodes
	temp float64
}

type fineHeatEdge struct {
	a, b int
	k0   float64 // nominal coefficient
}

type fineAirEdge struct {
	from, to int
	frac     float64
}

// Sensor is a noisy, lagged, quantized view of one true temperature.
type Sensor struct {
	lagged   float64 // first-order-lag state
	tau      float64 // lag time constant, seconds
	quantum  float64 // output resolution, C
	noiseAmp float64 // uniform noise amplitude, C
	rng      *rand.Rand
	primed   bool
}

func newSensor(tau, quantum, noiseAmp float64, rng *rand.Rand) *Sensor {
	return &Sensor{tau: tau, quantum: quantum, noiseAmp: noiseAmp, rng: rng}
}

func (s *Sensor) observe(truth, dt float64) {
	if !s.primed {
		s.lagged = truth
		s.primed = true
		return
	}
	alpha := dt / (s.tau + dt)
	s.lagged += float64(alpha * (truth - s.lagged))
}

// Read returns the sensor's current reading.
func (s *Sensor) Read() units.Celsius {
	v := s.lagged + float64(symmetric(s.rng)*s.noiseAmp)
	return units.Celsius(math.Round(v/s.quantum) * s.quantum)
}

// RefServer is the fine-grained reference machine.
type RefServer struct {
	nodes     []fineNode
	index     map[string]int
	heatEdges []fineHeatEdge
	airEdges  []fineAirEdge
	airOrder  []int
	relFlow   []float64
	inlet     int
	exhaust   int

	inletTemp float64
	fanM3s    float64
	mixRetain float64 // share of old region air retained each substep

	utils map[model.UtilSource]float64

	cpuBase, cpuSpan, cpuExp float64 // P = base + span*u^exp
	diskBase, diskSpan       float64
	psPower, mbPower         float64

	cpuAirSensor *Sensor
	diskSensor   *Sensor

	rng *rand.Rand
	now time.Duration
}

const substep = 100 * time.Millisecond

// symmetric returns a draw in [-1, 1). The draw is rounded before it is
// doubled: math/rand forms it as a product, and the doubling, which the
// compiler may rewrite as a sum, would otherwise fuse with it.
func symmetric(rng *rand.Rand) float64 {
	f := float64(rng.Float64())
	return float64(f*2) - 1
}

// perturb returns v scaled by a deterministic factor in [1-amp, 1+amp].
func perturb(rng *rand.Rand, v, amp float64) float64 {
	return v * (1 + float64(symmetric(rng)*amp))
}

// NewRefServer builds the reference machine. The seed perturbs the
// hidden constants, so two servers with different seeds behave like
// two different physical units of the same product.
func NewRefServer(seed int64) *RefServer {
	rng := rand.New(rand.NewSource(seed))
	r := &RefServer{
		index:     map[string]int{},
		inletTemp: 21.6,
		fanM3s:    units.CubicFeetPerMinute(perturb(rng, 38.6, 0.05)).CubicMetersPerSecond(),
		mixRetain: 0.10 + float64(rng.Float64()*0.08),
		utils:     map[model.UtilSource]float64{model.UtilCPU: 0, model.UtilDisk: 0},
		rng:       rng,
	}

	add := func(name string, mc float64) int {
		idx := len(r.nodes)
		r.nodes = append(r.nodes, fineNode{name: name, mc: mc, temp: r.inletTemp})
		r.index[name] = idx
		return idx
	}
	// Components: masses and specific heats are Table 1 with hidden
	// manufacturing variation; the CPU splits into die + sink.
	die := add(NodeCPUDie, perturb(rng, 0.021*700, 0.1))
	sink := add(NodeCPUSink, perturb(rng, 0.130*896, 0.1))
	platters := add(model.NodeDiskPlatters, perturb(rng, 0.336*896, 0.08))
	shell := add(model.NodeDiskShell, perturb(rng, 0.505*896, 0.08))
	ps := add(model.NodePowerSupply, perturb(rng, 1.643*896, 0.08))
	mb := add(model.NodeMotherboard, perturb(rng, 0.718*1245, 0.08))
	// Air regions (mc = 0 marks air; their capacity is the transiting
	// air mass).
	inlet := add(model.NodeInlet, 0)
	diskAir := add(model.NodeDiskAir, 0)
	diskDS := add(model.NodeDiskAirDS, 0)
	psAir := add(model.NodePSAir, 0)
	psDS := add(model.NodePSAirDS, 0)
	void := add(model.NodeVoidAir, 0)
	cpuAir := add(model.NodeCPUAir, 0)
	cpuDS := add(model.NodeCPUAirDS, 0)
	exhaust := add(model.NodeExhaust, 0)
	r.inlet, r.exhaust = inlet, exhaust

	he := func(a, b int, k float64) {
		r.heatEdges = append(r.heatEdges, fineHeatEdge{a: a, b: b, k0: perturb(rng, k, 0.12)})
	}
	he(die, sink, 3.2)
	he(sink, cpuAir, 0.78)
	he(platters, shell, 2.0)
	he(shell, diskAir, 1.9)
	he(ps, psAir, 4.0)
	he(mb, void, 10.0)
	he(mb, sink, 0.1)

	ae := func(from, to int, f float64) {
		r.airEdges = append(r.airEdges, fineAirEdge{from: from, to: to, frac: f})
	}
	// Air splits differ a little from the Table 1 estimates (the real
	// chassis never matches the eyeballed fractions exactly). They are
	// renormalized below so flow is conserved.
	ae(inlet, diskAir, perturb(rng, 0.4, 0.1))
	ae(inlet, psAir, perturb(rng, 0.5, 0.1))
	ae(inlet, void, perturb(rng, 0.1, 0.1))
	ae(diskAir, diskDS, 1)
	ae(diskDS, void, 1)
	ae(psAir, psDS, 1)
	ae(psDS, void, perturb(rng, 0.85, 0.05))
	ae(psDS, cpuAir, perturb(rng, 0.15, 0.05))
	ae(void, cpuAir, perturb(rng, 0.05, 0.1))
	ae(void, exhaust, perturb(rng, 0.95, 0.02))
	ae(cpuAir, cpuDS, 1)
	ae(cpuDS, exhaust, 1)
	r.normalizeAir()
	r.airOrder = []int{inlet, diskAir, diskDS, psAir, psDS, void, cpuAir, cpuDS, exhaust}
	r.computeFlows()

	// Power: the CPU curve bends slightly upward; the disk is linear
	// but its true endpoints differ from the datasheet numbers Mercury
	// starts from.
	r.cpuBase = perturb(rng, 7, 0.08)
	r.cpuSpan = perturb(rng, 24, 0.08)
	r.cpuExp = 1.05 + float64(rng.Float64()*0.08)
	r.diskBase = perturb(rng, 9, 0.08)
	r.diskSpan = perturb(rng, 5, 0.1)
	r.psPower = perturb(rng, 40, 0.05)
	r.mbPower = perturb(rng, 4, 0.1)

	// Sensors: the paper's external digital thermometer (1.5 C class)
	// and in-disk SCSI sensor (3 C class).
	r.cpuAirSensor = newSensor(8, 0.1, 0.15, rand.New(rand.NewSource(seed+1)))
	r.diskSensor = newSensor(15, 0.5, 0.25, rand.New(rand.NewSource(seed+2)))
	r.cpuAirSensor.observe(r.inletTemp, 0)
	r.diskSensor.observe(r.inletTemp, 0)
	return r
}

// normalizeAir rescales each node's outgoing fractions to sum to 1.
func (r *RefServer) normalizeAir() {
	sums := map[int]float64{}
	for _, e := range r.airEdges {
		sums[e.from] += e.frac
	}
	for i := range r.airEdges {
		r.airEdges[i].frac /= sums[r.airEdges[i].from]
	}
}

func (r *RefServer) computeFlows() {
	r.relFlow = make([]float64, len(r.nodes))
	r.relFlow[r.inlet] = 1
	for _, n := range r.airOrder {
		for _, e := range r.airEdges {
			if e.from == n {
				r.relFlow[e.to] += float64(r.relFlow[n] * e.frac)
			}
		}
	}
}

// SetUtilization sets a utilization stream (clamped).
func (r *RefServer) SetUtilization(src model.UtilSource, u units.Fraction) {
	r.utils[src] = float64(u.Clamp())
}

// Now returns elapsed emulated time.
func (r *RefServer) Now() time.Duration { return r.now }

// kEff models the mild dependence of convective transfer on the
// temperature difference: up to +20% at large deltas.
func kEff(k0, dT float64) float64 {
	scale := 0.9 + float64(0.2*math.Min(math.Abs(dT)/40, 1))
	return k0 * scale
}

// cpuPower is the true (slightly super-linear) CPU draw.
func (r *RefServer) cpuPower() float64 {
	u := r.utils[model.UtilCPU]
	return r.cpuBase + float64(r.cpuSpan*math.Pow(u, r.cpuExp))
}

func (r *RefServer) diskPower() float64 {
	return r.diskBase + float64(r.diskSpan*r.utils[model.UtilDisk])
}

// Step advances the machine by 1 s of emulated time (ten 100 ms
// substeps) and updates the sensors.
func (r *RefServer) Step() {
	for i := 0; i < int(time.Second/substep); i++ {
		r.substepOnce(substep.Seconds())
	}
	r.now += time.Second
	r.cpuAirSensor.observe(r.nodes[r.index[model.NodeCPUAir]].temp, 1)
	r.diskSensor.observe(r.nodes[r.index[model.NodeDiskPlatters]].temp, 1)
}

func (r *RefServer) substepOnce(dt float64) {
	n := len(r.nodes)
	snap := make([]float64, n)
	for i := range r.nodes {
		snap[i] = r.nodes[i].temp
	}
	netQ := make([]float64, n)
	for _, e := range r.heatEdges {
		dT := snap[e.a] - snap[e.b]
		q := float64(kEff(e.k0, dT) * dT * dt)
		netQ[e.a] -= q
		netQ[e.b] += q
	}
	netQ[r.index[NodeCPUDie]] += float64(r.cpuPower() * dt)
	netQ[r.index[model.NodeDiskPlatters]] += float64(r.diskPower() * dt)
	netQ[r.index[model.NodePowerSupply]] += float64(r.psPower * dt)
	netQ[r.index[model.NodeMotherboard]] += float64(r.mbPower * dt)

	for i := range r.nodes {
		if r.nodes[i].mc > 0 {
			r.nodes[i].temp = snap[i] + netQ[i]/r.nodes[i].mc
		}
	}
	// Air advection with imperfect mixing.
	for _, ni := range r.airOrder {
		if ni == r.inlet {
			r.nodes[ni].temp = r.inletTemp
			continue
		}
		var wsum, tsum float64
		for _, e := range r.airEdges {
			if e.to != ni {
				continue
			}
			w := float64(e.frac * r.relFlow[e.from])
			wsum += w
			tsum += float64(w * r.nodes[e.from].temp)
		}
		mix := snap[ni]
		if wsum > 0 {
			fresh := tsum / wsum
			mix = float64(r.mixRetain*snap[ni]) + float64((1-r.mixRetain)*fresh)
		}
		flow := r.relFlow[ni] * r.fanM3s
		mc := units.AirDensity * flow * dt * float64(units.AirSpecificHeat)
		if mc > 0 {
			// Imperfect mixing slows advection, so heat picked up from
			// components spreads over proportionally less fresh air.
			mix += netQ[ni] / (mc / (1 - r.mixRetain))
		}
		r.nodes[ni].temp = mix
	}
}

// ReadCPUAirSensor returns the external thermometer's reading of the
// air above the CPU heat sink (what Figures 5 and 7 plot).
func (r *RefServer) ReadCPUAirSensor() units.Celsius { return r.cpuAirSensor.Read() }

// ReadDiskSensor returns the in-disk sensor's reading (Figures 6, 8).
func (r *RefServer) ReadDiskSensor() units.Celsius { return r.diskSensor.Read() }
