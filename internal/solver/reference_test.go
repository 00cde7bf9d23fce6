package solver

import (
	"fmt"
	"math"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/thermo"
	"github.com/darklab/mercury/internal/units"
)

// This file freezes the parent commit's per-machine step kernel — every
// machine a heap island holding its own compiled topology and numbers —
// as the test-only reference the shape-shared, room-contiguous kernel
// is held to (differential_test.go). It is the parent's compileMachine,
// refresh functions, stepMachine, mixInlet, the serial stepN, the
// fiddle mutators and SaveState/RestoreState, with every type renamed
// ref* and the room reduced to one serial, unpartitioned instance
// (sharding and regions only decide where a machine steps, never what
// it computes). Its stepN steps every machine every step: it is the
// exhaustive stepping the solver's active set must reproduce bit for
// bit, so it carries no skip of its own. Do not "fix" it: its value is
// that it is the old code.

type refComp struct {
	node       int
	power      thermo.PowerModel
	util       model.UtilSource
	utilIdx    int
	powerScale float64
}

type refCompK struct {
	invThermal float64
	draw       float64
	node       int32
}

type refFlowIn struct {
	w    float64
	from int32
}

type refCoupleIn struct {
	k     float64
	other int32
}

type refAirCoef struct {
	wSum  float64
	fCoef float64
	fkSum float64
}

type refHeatEdge struct {
	k    float64
	a, b int32
}

type refRoomEdge struct {
	fromMachine bool
	ref         int
	frac        float64
}

type refMachine struct {
	name    string
	on      bool
	fanM3s  float64
	offFan  float64
	nomCFM  units.CubicFeetPerMinute
	names   []string
	index   map[string]int
	isAir   []bool
	temps   []float64
	scratch []float64
	netQ    []float64

	comps     []refComp
	compK     []refCompK
	curDraw   []float64
	compOf    map[int]int
	heatEdges []refHeatEdge

	airInOff   []int32
	flowIns    []refFlowIn
	airInFrac  []float64
	coupleOff  []int32
	couples    []refCoupleIn
	coupleEdge []int32

	airCoefs []refAirCoef

	relFlow    []float64
	inletIdx   int
	airSteps   []int32
	exhaustIdx []int

	inletPin    *float64
	inletTemp   float64
	exhaustTemp float64

	utilKeys []model.UtilSource
	utilVals []float64
	utilPos  map[model.UtilSource]int

	roomIn []refRoomEdge

	energy   float64
	airEdges []model.AirEdge
}

func refCompileMachine(m *model.Machine) (*refMachine, error) {
	cm := &refMachine{
		name:    m.Name,
		on:      true,
		fanM3s:  m.FanFlow.CubicMetersPerSecond(),
		offFan:  0.1,
		nomCFM:  m.FanFlow,
		index:   map[string]int{},
		compOf:  map[int]int{},
		utilPos: map[model.UtilSource]int{},
	}
	add := func(name string, air bool) int {
		idx := len(cm.names)
		cm.names = append(cm.names, name)
		cm.isAir = append(cm.isAir, air)
		cm.index[name] = idx
		return idx
	}
	for _, c := range m.Components {
		idx := add(c.Name, false)
		utilIdx := -1
		if c.Util != model.UtilNone {
			pos, ok := cm.utilPos[c.Util]
			if !ok {
				pos = len(cm.utilVals)
				cm.utilPos[c.Util] = pos
				cm.utilKeys = append(cm.utilKeys, c.Util)
				cm.utilVals = append(cm.utilVals, 0)
			}
			utilIdx = pos
		}
		cm.compOf[idx] = len(cm.comps)
		cm.comps = append(cm.comps, refComp{node: idx, power: c.Power, util: c.Util, utilIdx: utilIdx, powerScale: 1})
		cm.compK = append(cm.compK, refCompK{invThermal: 1 / float64(c.ThermalMass()), node: int32(idx)})
	}
	cm.curDraw = make([]float64, len(cm.comps))
	for _, a := range m.AirNodes {
		idx := add(a.Name, true)
		if a.Inlet {
			cm.inletIdx = idx
		}
		if a.Exhaust {
			cm.exhaustIdx = append(cm.exhaustIdx, idx)
		}
	}
	for _, e := range m.HeatEdges {
		cm.heatEdges = append(cm.heatEdges, refHeatEdge{a: int32(cm.index[e.A]), b: int32(cm.index[e.B]), k: float64(e.K)})
	}
	cm.buildCoupleCSR()
	order, err := m.AirTopoOrder()
	if err != nil {
		return nil, err
	}
	for _, name := range order {
		if n := cm.index[name]; n != cm.inletIdx {
			cm.airSteps = append(cm.airSteps, int32(n))
		}
	}
	cm.airEdges = append([]model.AirEdge(nil), m.AirEdges...)
	n := len(cm.names)
	cm.temps = make([]float64, n)
	cm.scratch = make([]float64, n)
	cm.netQ = make([]float64, n)
	cm.airCoefs = make([]refAirCoef, n)
	cm.inletTemp = float64(m.InletTemp)
	cm.refreshCoupleK()
	if err := cm.recompileAirFlow(); err != nil {
		return nil, err
	}
	cm.refreshDraws()
	return cm, nil
}

func (cm *refMachine) buildCoupleCSR() {
	n := len(cm.names)
	counts := make([]int32, n+1)
	for _, e := range cm.heatEdges {
		if cm.isAir[e.a] {
			counts[e.a+1]++
		}
		if cm.isAir[e.b] {
			counts[e.b+1]++
		}
	}
	for i := 0; i < n; i++ {
		counts[i+1] += counts[i]
	}
	cm.coupleOff = counts
	total := counts[n]
	cm.couples = make([]refCoupleIn, total)
	cm.coupleEdge = make([]int32, total)
	next := make([]int32, n)
	copy(next, counts[:n])
	for i, e := range cm.heatEdges {
		if cm.isAir[e.a] {
			p := next[e.a]
			next[e.a]++
			cm.coupleEdge[p] = int32(i)
			cm.couples[p].other = e.b
		}
		if cm.isAir[e.b] {
			p := next[e.b]
			next[e.b]++
			cm.coupleEdge[p] = int32(i)
			cm.couples[p].other = e.a
		}
	}
}

func (cm *refMachine) recompileAirFlow() error {
	n := len(cm.names)
	ne := len(cm.airEdges)
	from := make([]int32, ne)
	to := make([]int32, ne)
	frac := make([]float64, ne)
	outCount := make([]int32, n+1)
	inCount := make([]int32, n+1)
	for i, e := range cm.airEdges {
		f, okF := cm.index[e.From]
		t, okT := cm.index[e.To]
		if !okF || !okT {
			return fmt.Errorf("solver: machine %s: air edge %s->%s unknown", cm.name, e.From, e.To)
		}
		from[i], to[i], frac[i] = int32(f), int32(t), float64(e.Fraction)
		outCount[f+1]++
		inCount[t+1]++
	}
	for i := 0; i < n; i++ {
		outCount[i+1] += outCount[i]
		inCount[i+1] += inCount[i]
	}
	outEdge := make([]int32, ne)
	next := make([]int32, n)
	copy(next, outCount[:n])
	for i := range from {
		p := next[from[i]]
		next[from[i]]++
		outEdge[p] = int32(i)
	}
	rel := make([]float64, n)
	rel[cm.inletIdx] = 1
	propagate := func(nd int32) {
		for p := outCount[nd]; p < outCount[nd+1]; p++ {
			e := outEdge[p]
			rel[to[e]] += rel[from[e]] * frac[e]
		}
	}
	propagate(int32(cm.inletIdx))
	for _, nd := range cm.airSteps {
		propagate(nd)
	}
	cm.airInOff = inCount
	cm.flowIns = make([]refFlowIn, ne)
	cm.airInFrac = make([]float64, ne)
	copy(next, inCount[:n])
	for i := range to {
		p := next[to[i]]
		next[to[i]]++
		cm.flowIns[p].from = from[i]
		cm.airInFrac[p] = frac[i]
	}
	cm.relFlow = rel
	cm.refreshFlowCoef()
	return nil
}

func (cm *refMachine) refreshFlowCoef() {
	fan := cm.fanM3s
	if !cm.on {
		fan *= cm.offFan
	}
	for i := range cm.flowIns {
		cm.flowIns[i].w = cm.airInFrac[i] * cm.relFlow[cm.flowIns[i].from]
	}
	for n := range cm.names {
		var wsum float64
		for i := cm.airInOff[n]; i < cm.airInOff[n+1]; i++ {
			wsum += cm.flowIns[i].w
		}
		ac := &cm.airCoefs[n]
		ac.wSum = wsum
		ac.fCoef = units.AirDensity * cm.relFlow[n] * fan * float64(units.AirSpecificHeat)
		ac.fkSum = ac.fCoef + cm.kSumAt(n)
	}
}

func (cm *refMachine) kSumAt(n int) float64 {
	var ksum float64
	for i := cm.coupleOff[n]; i < cm.coupleOff[n+1]; i++ {
		ksum += cm.couples[i].k
	}
	return ksum
}

func (cm *refMachine) refreshCoupleK() {
	for i, e := range cm.coupleEdge {
		cm.couples[i].k = cm.heatEdges[e].k
	}
	for n := range cm.names {
		ac := &cm.airCoefs[n]
		ac.fkSum = ac.fCoef + cm.kSumAt(n)
	}
}

func (cm *refMachine) refreshDraws() {
	for i := range cm.comps {
		c := &cm.comps[i]
		draw := 0.0
		if cm.on && c.power != nil {
			var u units.Fraction
			if c.utilIdx >= 0 {
				u = units.Fraction(cm.utilVals[c.utilIdx])
			}
			draw = float64(c.power.Power(u)) * c.powerScale
		}
		cm.compK[i].draw = draw
	}
}

func (cm *refMachine) invalidate() {
	cm.refreshCoupleK()
	cm.refreshFlowCoef()
	cm.refreshDraws()
}

func refStepMachine(cm *refMachine, dt float64) float64 {
	snap := cm.scratch
	temps := cm.temps
	copy(snap, temps)
	netQ := cm.netQ
	for i := range netQ {
		netQ[i] = 0
	}
	for i := range cm.heatEdges {
		e := &cm.heatEdges[i]
		q := e.k * (snap[e.a] - snap[e.b]) * dt
		netQ[e.a] -= q
		netQ[e.b] += q
	}
	energy := cm.energy
	curDraw := cm.curDraw
	for i := range cm.compK {
		c := &cm.compK[i]
		draw := c.draw
		curDraw[i] = draw
		q := draw * dt
		nq := netQ[c.node] + q
		netQ[c.node] = nq
		energy += q
		temps[c.node] = snap[c.node] + nq*c.invThermal
	}
	cm.energy = energy
	temps[cm.inletIdx] = cm.inletTemp
	airInOff, flowIns := cm.airInOff, cm.flowIns
	coupleOff, couples := cm.coupleOff, cm.couples
	for _, n := range cm.airSteps {
		var tsum float64
		for _, in := range flowIns[airInOff[n]:airInOff[n+1]] {
			tsum += in.w * temps[in.from]
		}
		ac := &cm.airCoefs[n]
		mix := snap[n]
		if ac.wSum > 0 {
			mix = tsum / ac.wSum
		}
		var kT float64
		for _, cp := range couples[coupleOff[n]:coupleOff[n+1]] {
			kT += cp.k * temps[cp.other]
		}
		if ac.fkSum > 0 {
			temps[n] = (ac.fCoef*mix + kT) / ac.fkSum
		} else {
			temps[n] = mix
		}
	}
	var wsum, tsum float64
	for _, x := range cm.exhaustIdx {
		w := cm.relFlow[x]
		wsum += w
		tsum += w * temps[x]
	}
	if wsum > 0 {
		cm.exhaustTemp = tsum / wsum
	}
	var maxDelta float64
	for i, t := range temps {
		d := t - snap[i]
		if d < 0 {
			d = -d
		}
		if d > maxDelta {
			maxDelta = d
		}
	}
	return maxDelta
}

// refRoom is the parent's solverCore reduced to one serial,
// unpartitioned instance.
type refRoom struct {
	cfg       Config
	dt        float64
	machines  []*refMachine
	byName    map[string]*refMachine
	sources   []*sourceState
	srcIdx    map[string]int
	now       time.Duration
	steps     uint64
	lastDelta float64
}

func newRefRoom(c *model.Cluster, cfg Config) (*refRoom, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	r := &refRoom{cfg: cfg, dt: cfg.Step.Seconds(), byName: map[string]*refMachine{}, srcIdx: map[string]int{}}
	for i, src := range c.Sources {
		r.sources = append(r.sources, &sourceState{name: src.Name, supply: float64(src.SupplyTemp)})
		r.srcIdx[src.Name] = i
	}
	midx := map[string]int{}
	for i, m := range c.Machines {
		cm, err := refCompileMachine(m)
		if err != nil {
			return nil, err
		}
		r.machines = append(r.machines, cm)
		r.byName[m.Name] = cm
		midx[m.Name] = i
	}
	for _, e := range c.Edges {
		cm, ok := r.byName[e.To]
		if !ok {
			continue
		}
		if si, ok := r.srcIdx[e.From]; ok {
			cm.roomIn = append(cm.roomIn, refRoomEdge{ref: si, frac: float64(e.Fraction)})
		} else if mi, ok := midx[e.From]; ok {
			cm.roomIn = append(cm.roomIn, refRoomEdge{fromMachine: true, ref: mi, frac: float64(e.Fraction)})
		}
	}
	for _, cm := range r.machines {
		cm.inletTemp = r.mixInlet(cm)
		for i := range cm.temps {
			cm.temps[i] = cm.inletTemp
		}
		cm.exhaustTemp = cm.temps[cm.exhaustIdx[0]]
	}
	return r, nil
}

func (r *refRoom) mixInlet(cm *refMachine) float64 {
	if cm.inletPin != nil {
		return *cm.inletPin
	}
	var wsum, tsum float64
	for _, e := range cm.roomIn {
		var t float64
		if e.fromMachine {
			t = r.machines[e.ref].exhaustTemp
		} else {
			t = r.sources[e.ref].supply
		}
		wsum += e.frac
		tsum += e.frac * t
	}
	if wsum == 0 {
		return cm.inletTemp
	}
	return tsum / wsum
}

func (r *refRoom) stepN(n int) {
	var d float64
	for k := 0; k < n; k++ {
		for _, cm := range r.machines {
			cm.inletTemp = r.mixInlet(cm)
		}
		d = 0
		for _, cm := range r.machines {
			if md := refStepMachine(cm, r.dt); md > d {
				d = md
			}
		}
	}
	r.lastDelta = d
	r.now += time.Duration(n) * r.cfg.Step
	r.steps += uint64(n)
}

func (r *refRoom) setUtilization(machine string, src model.UtilSource, u units.Fraction) {
	cm := r.byName[machine]
	pos := cm.utilPos[src]
	v := float64(u.Clamp())
	if math.Float64bits(v) != math.Float64bits(cm.utilVals[pos]) {
		cm.utilVals[pos] = v
		cm.refreshDraws()
	}
}

func (r *refRoom) setNodeTemperature(machine, node string, t units.Celsius) {
	cm := r.byName[machine]
	cm.temps[cm.index[node]] = float64(t)
}

func (r *refRoom) pinInlet(machine string, t units.Celsius) {
	cm := r.byName[machine]
	v := float64(t)
	cm.inletPin = &v
	cm.inletTemp = v
}

func (r *refRoom) unpinInlet(machine string) {
	cm := r.byName[machine]
	cm.inletPin = nil
}

func (r *refRoom) setSourceTemperature(source string, t units.Celsius) {
	r.sources[r.srcIdx[source]].supply = float64(t)
}

func (r *refRoom) setHeatK(machine, a, b string, k units.WattsPerKelvin) {
	cm := r.byName[machine]
	ia, ib := cm.index[a], cm.index[b]
	for i := range cm.heatEdges {
		e := &cm.heatEdges[i]
		if (int(e.a) == ia && int(e.b) == ib) || (int(e.a) == ib && int(e.b) == ia) {
			e.k = float64(k)
			cm.refreshCoupleK()
			return
		}
	}
}

func (r *refRoom) setAirFraction(machine, from, to string, f units.Fraction) error {
	cm := r.byName[machine]
	for i := range cm.airEdges {
		e := &cm.airEdges[i]
		if e.From == from && e.To == to {
			e.Fraction = f
			return cm.recompileAirFlow()
		}
	}
	return nil
}

func (r *refRoom) setFanFlow(machine string, flow units.CubicFeetPerMinute) {
	cm := r.byName[machine]
	cm.fanM3s = flow.CubicMetersPerSecond()
	cm.nomCFM = flow
	cm.refreshFlowCoef()
}

func (r *refRoom) setPowerScale(machine, component string, scale units.Fraction) {
	cm := r.byName[machine]
	cm.comps[cm.compOf[cm.index[component]]].powerScale = float64(scale)
	cm.refreshDraws()
}

func (r *refRoom) setMachinePower(machine string, on bool) {
	cm := r.byName[machine]
	if cm.on != on {
		cm.on = on
		cm.refreshFlowCoef()
		cm.refreshDraws()
	}
}

func (r *refRoom) saveState() *State {
	st := &State{
		Now:      r.now,
		Steps:    r.steps,
		Sources:  map[string]units.Celsius{},
		Machines: map[string]MachineState{},
	}
	for _, src := range r.sources {
		st.Sources[src.name] = units.Celsius(src.supply)
	}
	for _, cm := range r.machines {
		ms := MachineState{
			On:           cm.on,
			Temps:        map[string]units.Celsius{},
			Utils:        map[model.UtilSource]units.Fraction{},
			FanFlow:      cm.nomCFM,
			Energy:       units.Joules(cm.energy),
			ExhaustTemp:  units.Celsius(cm.exhaustTemp),
			HeatKs:       map[string]units.WattsPerKelvin{},
			AirFractions: map[string]units.Fraction{},
		}
		for i, name := range cm.names {
			ms.Temps[name] = units.Celsius(cm.temps[i])
		}
		for i, src := range cm.utilKeys {
			ms.Utils[src] = units.Fraction(cm.utilVals[i])
		}
		if cm.inletPin != nil {
			ms.InletPinned = true
			ms.InletPin = units.Celsius(*cm.inletPin)
		}
		for i := range cm.comps {
			c := &cm.comps[i]
			if c.powerScale != 1 {
				if ms.PowerScales == nil {
					ms.PowerScales = map[string]units.Fraction{}
				}
				ms.PowerScales[cm.names[c.node]] = units.Fraction(c.powerScale)
			}
		}
		for _, e := range cm.heatEdges {
			ms.HeatKs[edgeKey(cm.names[e.a], cm.names[e.b])] = units.WattsPerKelvin(e.k)
		}
		for _, e := range cm.airEdges {
			ms.AirFractions[edgeKey(e.From, e.To)] = e.Fraction
		}
		st.Machines[cm.name] = ms
	}
	return st
}

// restoreState is the parent's RestoreState after validation (the
// states restored here are the reference's own).
func (r *refRoom) restoreState(st *State) error {
	r.now = st.Now
	r.steps = st.Steps
	for name, temp := range st.Sources {
		r.sources[r.srcIdx[name]].supply = float64(temp)
	}
	for mname, ms := range st.Machines {
		cm := r.byName[mname]
		cm.on = ms.On
		for node, temp := range ms.Temps {
			cm.temps[cm.index[node]] = float64(temp)
		}
		for src, u := range ms.Utils {
			cm.utilVals[cm.utilPos[src]] = float64(u.Clamp())
		}
		if ms.InletPinned {
			v := float64(ms.InletPin)
			cm.inletPin = &v
			cm.inletTemp = v
		} else {
			cm.inletPin = nil
		}
		if ms.FanFlow > 0 {
			cm.nomCFM = ms.FanFlow
			cm.fanM3s = ms.FanFlow.CubicMetersPerSecond()
		}
		cm.energy = float64(ms.Energy)
		cm.exhaustTemp = float64(ms.ExhaustTemp)
		for i := range cm.comps {
			cm.comps[i].powerScale = 1
		}
		for node, scale := range ms.PowerScales {
			idx, ok := cm.index[node]
			if !ok {
				continue
			}
			if ci, ok := cm.compOf[idx]; ok {
				cm.comps[ci].powerScale = float64(scale.Clamp())
			}
		}
		for key, k := range ms.HeatKs {
			for i := range cm.heatEdges {
				e := &cm.heatEdges[i]
				if edgeKey(cm.names[e.a], cm.names[e.b]) == key {
					e.k = float64(k)
				}
			}
		}
		changedAir := false
		for key, f := range ms.AirFractions {
			for i := range cm.airEdges {
				e := &cm.airEdges[i]
				if edgeKey(e.From, e.To) == key && e.Fraction != f {
					e.Fraction = f
					changedAir = true
				}
			}
		}
		if changedAir {
			if err := cm.recompileAirFlow(); err != nil {
				return err
			}
		}
		cm.invalidate()
	}
	return nil
}

// power is the parent's Power: the sum of the last executed step's
// component draws.
func (cm *refMachine) power() float64 {
	var w float64
	for i := range cm.comps {
		w += cm.curDraw[i]
	}
	return w
}
