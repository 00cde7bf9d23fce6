package solver

import (
	"encoding/binary"
	"fmt"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/thermo"
	"github.com/darklab/mercury/internal/units"
)

// This file holds the flat step kernel. A compiled machine has two
// halves (docs/performance.md, "Room layout"):
//
//   - a kernelShape: everything a fiddle cannot change — node names,
//     component and utilization bindings, heat- and air-edge endpoints,
//     the CSR offsets and neighbour indices of incoming air edges and
//     air couples, the air traversal order. New interns shapes by
//     structural equality, so a room of identical servers compiles one
//     shape, shared read-only by every machine and every worker.
//   - the machine's numbers, in room-wide arrays (room): machine mi owns
//     one window of each array, starting at its per-kind base (bases)
//     and as long as its shape's count of that kind. In a single-shape
//     room every base is mi × stride, so stepping the room streams each
//     array front to back.
//
// Every coefficient that is constant between fiddle operations (flow
// weights, heat capacity flows, conductance sums, component power
// draws) is cached in those windows. The step loop is pure slice
// arithmetic — no map lookups, no interface calls, no allocations — and
// produces exactly the same bits as recomputing everything from
// scratch, because each cached value is computed by the same
// expression, in the same order, as the historical per-step code.
//
// One function advances temperatures: stepPair steps two machines of
// one shape as interleaved lanes (docs/performance.md, "Pair kernel").
// Within a machine each air step is a chain of dependent divisions, so
// one machine alone leaves the core waiting on latency; two independent
// chains give it two to overlap. Each lane keeps its own windows,
// scratch and expression order, so each machine's bits are exactly
// those of stepping it alone. The step phase pairs the stepping
// machines of a shard, which groups them by shape (groupByShape); a
// machine with no partner is stepped as a pair with itself.
//
// Cache invalidation rules (see the refresh* methods):
//
//	refreshFlowCoef — flow weights and per-step wSum/fCoef/fkSum; stale
//	    after anything that changes relative flows or the fan:
//	    SetAirFraction (via recompileAirFlow), SetFanFlow,
//	    SetMachinePower, RestoreState.
//	refreshCoupleK  — per-couple k and per-step fkSum; stale after
//	    SetHeatK and RestoreState.
//	refreshDraws    — per-component draw; stale after SetUtilization,
//	    SetPowerScale, SetMachinePower, RestoreState.
//
// Every mutation above also sets the machine's dirty flag, which
// re-activates it for the quiescence-based active set
// (Config.ActiveSet).

// edge is a compiled graph edge: two node indices of one shape.
type edge struct {
	a, b int32
}

// kernelShape is the immutable compiled topology shared by every
// machine of one structure. Nothing in it is written after
// compileShape, so any number of machines and workers read it at once.
type kernelShape struct {
	names []string
	index map[string]int
	isAir []bool

	// Components in model order: compNode[i] is component i's node,
	// compUtil[i] its stream's position in utilKeys (-1 for UtilNone).
	// compOf maps a node back to its component (-1 for air nodes).
	compNode []int32
	compUtil []int32
	compOf   []int32
	utilKeys []model.UtilSource
	utilPos  map[model.UtilSource]int

	// Heat and air edges in model order, with their State keys.
	heatEdges []edge
	heatKeys  []string
	airEdges  []edge
	airKeys   []string

	// Incoming air edges in CSR form: node n's edges are entries
	// airInOff[n]..airInOff[n+1], in model air-edge order; flowFrom is
	// each one's source node and flowEdge its model air-edge index.
	airInOff []int32
	flowFrom []int32
	flowEdge []int32
	// Outgoing air edges in CSR form, airEdges order within each source
	// bucket: the relative-flow propagation order.
	airOutOff []int32
	outEdge   []int32
	// Heat edges touching each air node, CSR over heatEdges order; the
	// air traversal applies these exchanges implicitly. coupleEdge maps
	// each couple back to its heat edge for conductance refreshes.
	coupleOff   []int32
	coupleOther []int32
	coupleEdge  []int32

	inletIdx   int
	airSteps   []int32 // airOrder minus the inlet node
	exhaustIdx []int32
}

// bases locates one machine's window in each room-wide array; a shape
// gives every window's length.
type bases struct {
	node, comp, heat, air, couple, step, util int32
}

// advance moves b past one machine of shape sh.
func (b *bases) advance(sh *kernelShape) {
	b.node += int32(len(sh.names))
	b.comp += int32(len(sh.compNode))
	b.heat += int32(len(sh.heatEdges))
	b.air += int32(len(sh.airEdges))
	b.couple += int32(len(sh.coupleOther))
	b.step += int32(len(sh.airSteps))
	b.util += int32(len(sh.utilKeys))
}

// win is one machine's window of a room-wide array.
func win[T any](a []T, base int32, n int) []T {
	return a[base : int(base)+n : int(base)+n]
}

// compKernel is one component's hot kernel numbers.
type compKernel struct {
	invThermal float64 // 1 / (m*c)
	draw       float64 // cached watts for the next step (refreshDraws)
	cur        float64 // watts drawn during the last executed step (Power)
}

// compPower is one component's power model and its fiddle
// CPU-throttle scale (1 by default): what refreshDraws turns into a
// draw.
type compPower struct {
	model thermo.PowerModel
	scale float64
}

// airCoef bundles the cached per-air-step coefficients: the sum of
// incoming flow weights, the heat-capacity flow F = rho*c*relFlow*fan,
// and fkSum = F + kSum.
type airCoef struct {
	wSum  float64
	fCoef float64
	fkSum float64
}

// machine is one machine's per-machine scalars and the bases of its
// windows. The hot numbers live in the room arrays, not here.
type machine struct {
	shape *kernelShape
	bases
	pinned bool
	on     bool
	// Region ownership (region.go): a remote machine belongs to another
	// instance of a partitioned cluster and never steps here — it is an
	// exhaust placeholder refreshed by ImportBoundaryTemps. Both fields
	// stay zero when the cluster is unpartitioned.
	remote bool
	region int32
	pin    float64 // inlet override while pinned
	fanM3s float64 // nominal volumetric flow, m^3/s
	nomCFM units.CubicFeetPerMinute
	roomIn []roomEdge
	name   string
}

// room holds every machine's numbers in room-wide arrays, addressed
// through the machine's bases. Windows of different machines never
// overlap, so shard owners write disjoint elements.
type room struct {
	ms     []machine
	offFan float64 // Config.OffFanFraction

	temps    []float64    // node windows, in global machine order
	relFlow  []float64    // node windows
	compK    []compKernel // comp windows
	powers   []compPower  // comp windows
	utilVals []float64    // util windows, utilKeys order
	heatK    []float64    // heat windows
	airFrac  []float64    // air windows: raw fractions, model order
	flowW    []float64    // air windows: w = frac*relFlow[from], CSR order
	coupleK  []float64    // couple windows
	airCoefs []airCoef    // step windows, airSteps order

	// Per machine: cumulative joules drawn, effective inlet of this
	// step, flow-weighted exhaust mix of the last step, and the
	// active-set flags. quiet is true when the last executed step moved
	// no node (max delta exactly 0); dirty is set by any input change
	// (fiddle op, utilization update, inlet movement) and cleared when
	// the machine steps. A quiet, clean machine is at a bitwise fixed
	// point of the step map, so Config.ActiveSet skips it.
	energy  []float64
	inlet   []float64
	exhaust []float64
	quiet   []bool
	dirty   []bool
}

// newRoom sizes every array for n machines whose windows end at total.
func newRoom(n int, total bases, offFan float64) room {
	return room{
		ms:       make([]machine, n),
		offFan:   offFan,
		temps:    make([]float64, total.node),
		relFlow:  make([]float64, total.node),
		compK:    make([]compKernel, total.comp),
		powers:   make([]compPower, total.comp),
		utilVals: make([]float64, total.util),
		heatK:    make([]float64, total.heat),
		airFrac:  make([]float64, total.air),
		flowW:    make([]float64, total.air),
		coupleK:  make([]float64, total.couple),
		airCoefs: make([]airCoef, total.step),
		energy:   make([]float64, n),
		inlet:    make([]float64, n),
		exhaust:  make([]float64, n),
		quiet:    make([]bool, n),
		dirty:    make([]bool, n),
	}
}

// tempsOf is machine mi's temperature window, in its shape's node order.
func (r *room) tempsOf(mi int) []float64 {
	m := &r.ms[mi]
	return win(r.temps, m.node, len(m.shape.names))
}

// utilsOf is machine mi's utilization window, in utilKeys order.
func (r *room) utilsOf(mi int) []float64 {
	m := &r.ms[mi]
	return win(r.utilVals, m.util, len(m.shape.utilKeys))
}

// place fills machine mi's windows from its model and primes every
// cached coefficient. sh must be the shape interned for m.
func (r *room) place(mi int, m *model.Machine, sh *kernelShape, at bases) {
	r.ms[mi] = machine{
		shape:  sh,
		bases:  at,
		on:     true,
		fanM3s: m.FanFlow.CubicMetersPerSecond(),
		nomCFM: m.FanFlow,
		name:   m.Name,
	}
	ck := win(r.compK, at.comp, len(sh.compNode))
	for i, c := range m.Components {
		ck[i].invThermal = 1 / float64(c.ThermalMass())
		r.powers[int(at.comp)+i] = compPower{model: c.Power, scale: 1}
	}
	for i, e := range m.HeatEdges {
		r.heatK[int(at.heat)+i] = float64(e.K)
	}
	for i, e := range m.AirEdges {
		r.airFrac[int(at.air)+i] = float64(e.Fraction)
	}
	r.inlet[mi] = float64(m.InletTemp)
	r.dirty[mi] = true
	r.refreshCoupleK(mi)
	r.recompileAirFlow(mi)
	r.refreshDraws(mi)
}

// shapeTable interns kernel shapes by structural equality. The key is
// an exact, unambiguous encoding (every string length-prefixed) of
// everything compileShape reads, so equal keys mean equal shapes.
type shapeTable struct {
	shapes map[string]*kernelShape
	key    []byte // scratch: lookups by string(key) do not allocate
}

// intern returns the shape of m, compiling it on first sight.
func (t *shapeTable) intern(m *model.Machine) (*kernelShape, error) {
	k := t.key[:0]
	str := func(s string) {
		k = binary.AppendUvarint(k, uint64(len(s)))
		k = append(k, s...)
	}
	k = binary.AppendUvarint(k, uint64(len(m.Components)))
	for _, c := range m.Components {
		str(c.Name)
		str(string(c.Util))
	}
	k = binary.AppendUvarint(k, uint64(len(m.AirNodes)))
	for _, a := range m.AirNodes {
		str(a.Name)
		k = append(k, boolByte(a.Inlet), boolByte(a.Exhaust))
	}
	k = binary.AppendUvarint(k, uint64(len(m.HeatEdges)))
	for _, e := range m.HeatEdges {
		str(e.A)
		str(e.B)
	}
	k = binary.AppendUvarint(k, uint64(len(m.AirEdges)))
	for _, e := range m.AirEdges {
		str(e.From)
		str(e.To)
	}
	t.key = k
	if sh, ok := t.shapes[string(k)]; ok {
		return sh, nil
	}
	sh, err := compileShape(m)
	if err != nil {
		return nil, err
	}
	t.shapes[string(k)] = sh
	return sh, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// compileShape compiles m's topology. It reads only what the
// shapeTable key encodes, so every machine interned to the result
// compiles to it.
func compileShape(m *model.Machine) (*kernelShape, error) {
	sh := &kernelShape{
		index:   map[string]int{},
		utilPos: map[model.UtilSource]int{},
	}
	add := func(name string, air bool) int {
		idx := len(sh.names)
		sh.names = append(sh.names, name)
		sh.isAir = append(sh.isAir, air)
		sh.index[name] = idx
		return idx
	}
	for _, c := range m.Components {
		idx := add(c.Name, false)
		utilIdx := -1
		if c.Util != model.UtilNone {
			pos, ok := sh.utilPos[c.Util]
			if !ok {
				pos = len(sh.utilKeys)
				sh.utilPos[c.Util] = pos
				sh.utilKeys = append(sh.utilKeys, c.Util)
			}
			utilIdx = pos
		}
		sh.compNode = append(sh.compNode, int32(idx))
		sh.compUtil = append(sh.compUtil, int32(utilIdx))
	}
	for _, a := range m.AirNodes {
		idx := add(a.Name, true)
		if a.Inlet {
			sh.inletIdx = idx
		}
		if a.Exhaust {
			sh.exhaustIdx = append(sh.exhaustIdx, int32(idx))
		}
	}
	n := len(sh.names)
	sh.compOf = make([]int32, n)
	for i := range sh.compOf {
		sh.compOf[i] = -1
	}
	for i, node := range sh.compNode {
		sh.compOf[node] = int32(i)
	}
	for _, e := range m.HeatEdges {
		sh.heatEdges = append(sh.heatEdges, edge{a: int32(sh.index[e.A]), b: int32(sh.index[e.B])})
		sh.heatKeys = append(sh.heatKeys, edgeKey(e.A, e.B))
	}
	sh.buildCoupleCSR()
	for _, e := range m.AirEdges {
		f, okF := sh.index[e.From]
		t, okT := sh.index[e.To]
		if !okF || !okT {
			return nil, fmt.Errorf("solver: machine %s: air edge %s->%s unknown", m.Name, e.From, e.To)
		}
		sh.airEdges = append(sh.airEdges, edge{a: int32(f), b: int32(t)})
		sh.airKeys = append(sh.airKeys, edgeKey(e.From, e.To))
	}
	sh.buildAirCSR()
	order, err := m.AirTopoOrder()
	if err != nil {
		return nil, err
	}
	for _, name := range order {
		if n := sh.index[name]; n != sh.inletIdx {
			sh.airSteps = append(sh.airSteps, int32(n))
		}
	}
	return sh, nil
}

// heatEdgeIndex is the model index of the first heat edge between
// nodes a and b, named in either direction (heat edges are
// undirected), or -1.
func (sh *kernelShape) heatEdgeIndex(a, b int) int {
	for i, e := range sh.heatEdges {
		if (int(e.a) == a && int(e.b) == b) || (int(e.a) == b && int(e.b) == a) {
			return i
		}
	}
	return -1
}

// buildCoupleCSR indexes, per air node, the heat edges touching it.
func (sh *kernelShape) buildCoupleCSR() {
	n := len(sh.names)
	counts := make([]int32, n+1)
	for _, e := range sh.heatEdges {
		if sh.isAir[e.a] {
			counts[e.a+1]++
		}
		if sh.isAir[e.b] {
			counts[e.b+1]++
		}
	}
	for i := 0; i < n; i++ {
		counts[i+1] += counts[i]
	}
	sh.coupleOff = counts
	total := counts[n]
	sh.coupleOther = make([]int32, total)
	sh.coupleEdge = make([]int32, total)
	next := make([]int32, n)
	copy(next, counts[:n])
	for i, e := range sh.heatEdges {
		if sh.isAir[e.a] {
			p := next[e.a]
			next[e.a]++
			sh.coupleEdge[p] = int32(i)
			sh.coupleOther[p] = e.b
		}
		if sh.isAir[e.b] {
			p := next[e.b]
			next[e.b]++
			sh.coupleEdge[p] = int32(i)
			sh.coupleOther[p] = e.a
		}
	}
}

// buildAirCSR buckets the air edges by destination (the traversal's
// incoming lists) and by source (the relative-flow propagation), each
// in airEdges order within a bucket.
func (sh *kernelShape) buildAirCSR() {
	n := len(sh.names)
	ne := len(sh.airEdges)
	outCount := make([]int32, n+1)
	inCount := make([]int32, n+1)
	for _, e := range sh.airEdges {
		outCount[e.a+1]++
		inCount[e.b+1]++
	}
	for i := 0; i < n; i++ {
		outCount[i+1] += outCount[i]
		inCount[i+1] += inCount[i]
	}
	sh.airOutOff = outCount
	sh.outEdge = make([]int32, ne)
	next := make([]int32, n)
	copy(next, outCount[:n])
	for i, e := range sh.airEdges {
		p := next[e.a]
		next[e.a]++
		sh.outEdge[p] = int32(i)
	}
	sh.airInOff = inCount
	sh.flowFrom = make([]int32, ne)
	sh.flowEdge = make([]int32, ne)
	copy(next, inCount[:n])
	for i, e := range sh.airEdges {
		p := next[e.b]
		next[e.b]++
		sh.flowFrom[p] = e.a
		sh.flowEdge[p] = int32(i)
	}
}

// recompileAirFlow recomputes machine mi's relative flows from its raw
// air fractions, then refreshes the flow-dependent coefficients. Called
// at compile time and after fiddle changes an air fraction. Flows
// propagate over the shape's outgoing CSR in topological order, so
// upstream flows are final before they are consumed downstream and the
// accumulations happen in exactly the order of the historical
// all-edges rescan; the inlet is a root and carries flow 1.
func (r *room) recompileAirFlow(mi int) {
	m := &r.ms[mi]
	sh := m.shape
	rel := win(r.relFlow, m.node, len(sh.names))
	frac := win(r.airFrac, m.air, len(sh.airEdges))
	for i := range rel {
		rel[i] = 0
	}
	rel[sh.inletIdx] = 1
	propagate := func(nd int32) {
		for p := sh.airOutOff[nd]; p < sh.airOutOff[nd+1]; p++ {
			e := sh.outEdge[p]
			ae := sh.airEdges[e]
			rel[ae.b] += rel[ae.a] * frac[e]
		}
	}
	propagate(int32(sh.inletIdx))
	for _, nd := range sh.airSteps {
		propagate(nd)
	}
	r.refreshFlowCoef(mi)
}

// refreshFlowCoef recomputes machine mi's cached flow weights w =
// frac*relFlow[from], their per-node sums, the heat-capacity flow
// coefficients F = rho*c*relFlow*fan, and fkSum = F + kSum. Must be
// called after anything that changes relFlow, the fan throughput, or
// the machine's power state.
func (r *room) refreshFlowCoef(mi int) {
	m := &r.ms[mi]
	sh := m.shape
	fan := m.fanM3s
	if !m.on {
		fan *= r.offFan
	}
	rel := win(r.relFlow, m.node, len(sh.names))
	frac := win(r.airFrac, m.air, len(sh.airEdges))
	w := win(r.flowW, m.air, len(sh.airEdges))
	for p := range w {
		w[p] = frac[sh.flowEdge[p]] * rel[sh.flowFrom[p]]
	}
	coefs := win(r.airCoefs, m.step, len(sh.airSteps))
	for j, n := range sh.airSteps {
		var wsum float64
		for p := sh.airInOff[n]; p < sh.airInOff[n+1]; p++ {
			wsum += w[p]
		}
		ac := &coefs[j]
		ac.wSum = wsum
		ac.fCoef = units.AirDensity * rel[n] * fan * float64(units.AirSpecificHeat)
		ac.fkSum = ac.fCoef + r.kSumAt(mi, n)
	}
}

// kSumAt accumulates node n's couple conductances in CSR order —
// exactly the per-step summation order of the historical kernel.
func (r *room) kSumAt(mi int, n int32) float64 {
	m := &r.ms[mi]
	sh := m.shape
	k := win(r.coupleK, m.couple, len(sh.coupleOther))
	var ksum float64
	for i := sh.coupleOff[n]; i < sh.coupleOff[n+1]; i++ {
		ksum += k[i]
	}
	return ksum
}

// refreshCoupleK recomputes machine mi's cached per-couple
// conductances and fkSum. Must be called after a heat-edge conductance
// changes.
func (r *room) refreshCoupleK(mi int) {
	m := &r.ms[mi]
	sh := m.shape
	k := win(r.coupleK, m.couple, len(sh.coupleOther))
	heatK := win(r.heatK, m.heat, len(sh.heatEdges))
	for i, e := range sh.coupleEdge {
		k[i] = heatK[e]
	}
	coefs := win(r.airCoefs, m.step, len(sh.airSteps))
	for j, n := range sh.airSteps {
		ac := &coefs[j]
		ac.fkSum = ac.fCoef + r.kSumAt(mi, n)
	}
}

// refreshDraws recomputes machine mi's cached component draws from its
// power state, utilization streams, and power scales. Must be called
// after any of those change. The cached value is bit-equal to the
// historical per-step recomputation because power models are pure
// functions of utilization.
func (r *room) refreshDraws(mi int) {
	m := &r.ms[mi]
	sh := m.shape
	ck := win(r.compK, m.comp, len(sh.compNode))
	powers := win(r.powers, m.comp, len(sh.compNode))
	utils := r.utilsOf(mi)
	for i := range ck {
		draw := 0.0
		if p := &powers[i]; m.on && p.model != nil {
			var u units.Fraction // 0 for UtilNone
			if ui := sh.compUtil[i]; ui >= 0 {
				u = units.Fraction(utils[ui])
			}
			draw = float64(p.model.Power(u)) * p.scale
		}
		ck[i].draw = draw
	}
}

// invalidate rebuilds every cached coefficient of machine mi and
// re-activates it. RestoreState uses it after rewriting arbitrary
// state.
func (r *room) invalidate(mi int) {
	r.refreshCoupleK(mi)
	r.refreshFlowCoef(mi)
	r.refreshDraws(mi)
	r.dirty[mi] = true
	r.quiet[mi] = false
}

// stepPair performs the heat-flow and intra-machine air-flow traversals
// for machines a and b, which must share one shape, and returns the
// largest absolute temperature change of any node of each during the
// step. Every loop runs both machines as interleaved lanes, so the
// dependent divisions of one machine's air chain overlap the other's.
// Each lane reads only its own machine's windows and its own scratch
// lane (snap[0], netQ[0] for a; snap[1], netQ[1] for b), and performs
// exactly the expressions, in exactly the order, of stepping that
// machine alone. A machine without a partner is stepped as a == b: both
// lanes read the same snapshot and write identical values to the same
// windows, because every lane writes after both lanes' reads of it. The
// scratch lanes must be at least as long as the shape's node count. It
// allocates nothing.
func (r *room) stepPair(a, b int, dt float64, snap, netQ [2][]float64) (float64, float64) {
	ma, mb := &r.ms[a], &r.ms[b]
	sh := ma.shape
	n := len(sh.names)
	tA, tB := win(r.temps, ma.node, n), win(r.temps, mb.node, n)
	sA, sB := snap[0][:n], snap[1][:n]
	copy(sA, tA)
	copy(sB, tB)
	qA, qB := netQ[0][:n], netQ[1][:n]
	for i := range qA {
		qA[i] = 0
		qB[i] = 0
	}

	// Traversal 1: inter-component heat flow (Equations 1, 2, 3).
	ne := len(sh.heatEdges)
	hA, hB := win(r.heatK, ma.heat, ne), win(r.heatK, mb.heat, ne)
	for i, e := range sh.heatEdges {
		xa := hA[i] * (sA[e.a] - sA[e.b]) * dt
		xb := hB[i] * (sB[e.a] - sB[e.b]) * dt
		qA[e.a] -= xa
		qA[e.b] += xa
		qB[e.a] -= xb
		qB[e.b] += xb
	}
	// Power dissipation plus component temperature updates (Equation
	// 5). Each component owns its node, and all heat-edge contributions
	// are in, so its netQ is final once its own draw is added — the
	// temperature update fuses into the same pass. Energy accrues
	// through a register with the same per-component addition sequence
	// the accumulator would see; both counters are read before either
	// is written, so a self-pair accrues once.
	eA, eB := r.energy[a], r.energy[b]
	nc := len(sh.compNode)
	cA, cB := win(r.compK, ma.comp, nc), win(r.compK, mb.comp, nc)
	for i, node := range sh.compNode {
		ca, cb := &cA[i], &cB[i]
		da, db := ca.draw, cb.draw
		ca.cur = da
		cb.cur = db
		xa, xb := da*dt, db*dt
		na, nb := qA[node]+xa, qB[node]+xb
		qA[node] = na
		qB[node] = nb
		eA += xa
		eB += xb
		tA[node] = sA[node] + na*ca.invThermal
		tB[node] = sB[node] + nb*cb.invThermal
	}
	r.energy[a] = eA
	r.energy[b] = eB

	// Traversal 2: intra-machine air movement. Air regions are
	// processed in topological order so each region mixes the
	// temperatures its upstream regions just computed. Heat exchange
	// with coupled nodes is applied implicitly: the energy balance of
	// the air parcel crossing the region,
	//
	//	F (T_out - T_mix) = sum_j k_j (T_j - T_out)
	//
	// with F the heat-capacity flow rho*c*flow (W/K), gives
	//
	//	T_out = (F T_mix + sum_j k_j T_j) / (F + sum_j k_j),
	//
	// a convex combination of the mix and the coupled temperatures —
	// unconditionally stable even at the small natural-draft flows of
	// powered-off machines, where the explicit form diverges. It is
	// also exactly the air equation of the analytic steady state.
	// F, sum_j k_j, and the flow weights are cached (refreshFlowCoef,
	// refreshCoupleK); only the temperature-dependent sums run here.
	// The inlet is assigned up front: it precedes every reader in
	// topological order, so airSteps never needs the branch.
	tA[sh.inletIdx] = r.inlet[a]
	tB[sh.inletIdx] = r.inlet[b]
	na, nk, ns := len(sh.airEdges), len(sh.coupleOther), len(sh.airSteps)
	wA, wB := win(r.flowW, ma.air, na), win(r.flowW, mb.air, na)
	kA, kB := win(r.coupleK, ma.couple, nk), win(r.coupleK, mb.couple, nk)
	fA, fB := win(r.airCoefs, ma.step, ns), win(r.airCoefs, mb.step, ns)
	airInOff, flowFrom := sh.airInOff, sh.flowFrom
	coupleOff, coupleOther := sh.coupleOff, sh.coupleOther
	for j, nd := range sh.airSteps {
		var tsA, tsB float64
		for p := airInOff[nd]; p < airInOff[nd+1]; p++ {
			from := flowFrom[p]
			tsA += wA[p] * tA[from]
			tsB += wB[p] * tB[from]
		}
		acA, acB := &fA[j], &fB[j]
		mixA, mixB := sA[nd], sB[nd] // a stagnant region keeps its old temperature
		if acA.wSum > 0 {
			mixA = tsA / acA.wSum
		}
		if acB.wSum > 0 {
			mixB = tsB / acB.wSum
		}
		var kTA, kTB float64
		for p := coupleOff[nd]; p < coupleOff[nd+1]; p++ {
			other := coupleOther[p]
			kTA += kA[p] * tA[other]
			kTB += kB[p] * tB[other]
		}
		if acA.fkSum > 0 {
			mixA = (acA.fCoef*mixA + kTA) / acA.fkSum
		}
		if acB.fkSum > 0 {
			mixB = (acB.fCoef*mixB + kTB) / acB.fkSum
		}
		tA[nd] = mixA
		tB[nd] = mixB
	}

	// Exhaust mix for the room-level traversal of the next step.
	rA, rB := win(r.relFlow, ma.node, n), win(r.relFlow, mb.node, n)
	var wsA, tsA, wsB, tsB float64
	for _, x := range sh.exhaustIdx {
		fa, fb := rA[x], rB[x]
		wsA += fa
		tsA += fa * tA[x]
		wsB += fb
		tsB += fb * tB[x]
	}
	if wsA > 0 {
		r.exhaust[a] = tsA / wsA
	}
	if wsB > 0 {
		r.exhaust[b] = tsB / wsB
	}

	var maxA, maxB float64
	for i := range tA {
		da, db := tA[i]-sA[i], tB[i]-sB[i]
		if da < 0 {
			da = -da
		}
		if db < 0 {
			db = -db
		}
		if da > maxA {
			maxA = da
		}
		if db > maxB {
			maxB = db
		}
	}
	return maxA, maxB
}

// stepQuiescent advances a machine that Config.ActiveSet proved to be
// at a bitwise fixed point: temperatures, exhaust mix, and per-step
// deltas are unchanged by construction, so only the energy accrual
// runs — as the same per-component sequential additions stepPair
// performs, keeping the energy counter bit-identical too.
func (r *room) stepQuiescent(mi int, dt float64) {
	m := &r.ms[mi]
	energy := r.energy[mi]
	for _, c := range win(r.compK, m.comp, len(m.shape.compNode)) {
		energy += c.draw * dt
	}
	r.energy[mi] = energy
}
