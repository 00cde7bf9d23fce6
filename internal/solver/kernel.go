package solver

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/thermo"
	"github.com/darklab/mercury/internal/units"
)

// This file holds the flat step kernel. A compiled machine has three
// parts (docs/performance.md, "Room layout" and "Quad kernel over
// shared coefficient sets"):
//
//   - a kernelShape: everything a fiddle cannot change — node names,
//     component and utilization bindings, heat- and air-edge endpoints,
//     the CSR offsets and neighbour indices of incoming air edges and
//     air couples, the air traversal order. New interns shapes by
//     structural equality, so a room of identical servers compiles one
//     shape, shared read-only by every machine and every worker.
//   - a coefSet: every constant only fiddle can change — heat-edge and
//     couple conductances, air fractions, relative flows, flow weights,
//     the per-air-step coefficients (wSum, fCoef from the fan flow times
//     the power state's draft, fkSum), 1/(m*c) and the power models.
//     Sets are interned by value within a shape (setTable), so a room
//     of identical servers compiles one set per shape too. A set is
//     immutable while bound: a fiddle builds the machine's new
//     constants, interns them and moves the machine to the result, and
//     a value that returns to the default rejoins the shared set.
//   - the machine's own numbers, in room-wide arrays (room): machine mi
//     owns one window of each array, starting at its per-kind base
//     (bases) and as long as its shape's count of that kind —
//     temperatures, draws, power scales and utilizations — plus its
//     energy, inlet, exhaust, pin and flags.
//
// Every coefficient in a set is computed by the same expression, in
// the same order, as the historical per-step code, so the step loop is
// pure slice arithmetic — no map lookups, no interface calls, no
// allocations — and produces exactly the bits of recomputing
// everything from scratch.
//
// Two functions advance temperatures. stepQuad steps four machines of
// one set as interleaved lanes: each coefficient is loaded once for all
// four, each branch on a coefficient is taken once, and the lanes'
// temperatures are gathered into interleaved scratch so the air
// traversal keeps one slice live rather than four. stepPair steps two
// machines of one shape, each lane reading its own set; the step phase
// uses it for whatever of a run of one set does not fill a group of
// four, pairing such machines by shape, and a machine with no partner
// steps as a pair with itself. In both, each lane performs exactly the
// expressions, in exactly the order, of stepping its machine alone.
// Every product that feeds a sum is written float64(x*y), which the Go
// specification forbids fusing into a multiply-add, so the bits are the
// same on every architecture.
//
// Invalidation rules:
//
//	bind          — the machine's set; rerun after anything that
//	    changes a set constant: SetHeatK, SetAirFraction, SetFanFlow,
//	    SetMachinePower (the draft), RestoreState. A new set compiles
//	    its derived coefficients (coefSet.compile) once.
//	refreshDraws  — per-component draw; stale after SetUtilization,
//	    SetPowerScale, SetMachinePower, RestoreState.
//
// Every mutation above also sets the machine's dirty flag, which
// re-activates it for the quiescence-based active set (stepN).

// edge is a compiled graph edge: two node indices of one shape.
type edge struct {
	a, b int32
}

// kernelShape is the immutable compiled topology shared by every
// machine of one structure. Nothing in it is written after
// compileShape, so any number of machines and workers read it at once.
type kernelShape struct {
	id    int32 // position in interning order; prefixes its sets' keys
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
	// each couple back to its heat edge.
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
	node, comp, util int32
}

// advance moves b past one machine of shape sh.
func (b *bases) advance(sh *kernelShape) {
	b.node += int32(len(sh.names))
	b.comp += int32(len(sh.compNode))
	b.util += int32(len(sh.utilKeys))
}

// win is one machine's window of a room-wide array.
func win[T any](a []T, base int32, n int) []T {
	return a[base : int(base)+n : int(base)+n]
}

// compKernel is one component's per-machine kernel numbers.
type compKernel struct {
	draw float64 // cached watts for the next step (refreshDraws)
	cur  float64 // watts drawn during the last executed step (Power)
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
// windows. The hot numbers live in the room arrays and its set, not
// here.
type machine struct {
	shape *kernelShape
	set   *coefSet
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

// room holds every machine's own numbers in room-wide arrays, addressed
// through the machine's bases, and the table of the sets they are bound
// to. Windows of different machines never overlap, so shard owners
// write disjoint elements.
type room struct {
	ms   []machine
	sets setTable

	temps    []float64    // node windows, in global machine order
	compK    []compKernel // comp windows
	scales   []float64    // comp windows: fiddle's CPU-throttle scale, 1 by default
	utilVals []float64    // util windows, utilKeys order

	// Per machine: cumulative joules drawn, effective inlet of this
	// step, flow-weighted exhaust mix of the last step, and the active
	// set's flags. quiet is true when the last executed step moved
	// no node (max delta exactly 0); dirty is set by any input change
	// (fiddle op, utilization update, inlet movement) and cleared when
	// the machine steps. A quiet, clean machine is at a bitwise fixed
	// point of the step map, so the step skips it.
	energy  []float64
	inlet   []float64
	exhaust []float64
	quiet   []bool
	dirty   []bool
}

// newRoom sizes every array for n machines whose windows end at total.
func newRoom(n int, total bases) room {
	return room{
		ms:       make([]machine, n),
		sets:     newSetTable(),
		temps:    make([]float64, total.node),
		compK:    make([]compKernel, total.comp),
		scales:   make([]float64, total.comp),
		utilVals: make([]float64, total.util),
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

// scalesOf is machine mi's power-scale window, in component order.
func (r *room) scalesOf(mi int) []float64 {
	m := &r.ms[mi]
	return win(r.scales, m.comp, len(m.shape.compNode))
}

// place fills machine mi's windows from its model and binds it to the
// set of its constants. sh must be the shape interned for m.
func (r *room) place(mi int, m *model.Machine, sh *kernelShape, at bases) {
	r.ms[mi] = machine{
		shape:  sh,
		bases:  at,
		on:     true,
		fanM3s: m.FanFlow.CubicMetersPerSecond(),
		nomCFM: m.FanFlow,
		name:   m.Name,
	}
	st := r.stageShape(sh)
	for i, c := range m.Components {
		st.invThermal[i] = 1 / float64(c.ThermalMass())
		st.models[i] = c.Power
		st.modelIDs[i] = r.sets.modelID(c.Power)
	}
	for i, e := range m.HeatEdges {
		st.heatK[i] = float64(e.K)
	}
	for i, e := range m.AirEdges {
		st.airFrac[i] = float64(e.Fraction)
	}
	scales := r.scalesOf(mi)
	for i := range scales {
		scales[i] = 1
	}
	r.inlet[mi] = float64(m.InletTemp)
	r.dirty[mi] = true
	r.bind(mi)
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
	sh.id = int32(len(t.shapes))
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

// coefSet is one value of a shape's fiddle-controlled constants, shared
// by every machine bound to it. The raw constants are the set's
// identity (setTable keys them); the derived coefficients are compiled
// from them alone. Nothing in a bound set is written, so the step
// kernel reads it from any number of workers at once.
type coefSet struct {
	// What the kernels read, first, so it spans as few cache lines as
	// it can: heat-edge k and 1/(m*c) are raw constants; the couple k
	// (the heat edge's), flow weights (w = frac*relFlow[from], CSR
	// order), air-step coefficients and relative flows are derived
	// (compile).
	heatK      []float64 // heat edges, model order
	invThermal []float64 // components
	coupleK    []float64 // couples
	flowW      []float64 // air edges, CSR order
	airCoefs   []airCoef // airSteps order
	relFlow    []float64 // nodes: flow relative to the inlet

	// The other raw constants.
	fan      float64             // fan flow × draft of the power state, m^3/s
	airFrac  []float64           // air edges, model order
	models   []thermo.PowerModel // components
	modelIDs []uint64            // components: the models' key ids

	shape *kernelShape
	refs  int32  // machines bound to the set
	key   string // its setTable key
}

// copyRaw makes s's raw constants those of src, which has s's shape.
func (s *coefSet) copyRaw(src *coefSet) {
	s.fan = src.fan
	copy(s.heatK, src.heatK)
	copy(s.airFrac, src.airFrac)
	copy(s.invThermal, src.invThermal)
	copy(s.models, src.models)
	copy(s.modelIDs, src.modelIDs)
}

// compile computes the derived coefficients from the raw constants.
// Relative flows propagate over the shape's outgoing CSR in topological
// order, so upstream flows are final before they are consumed
// downstream and the accumulations happen in exactly the order of the
// historical all-edges rescan; the inlet is a root and carries flow 1.
// Conductance sums accumulate in CSR order, the historical per-step
// summation order.
func (s *coefSet) compile() {
	sh := s.shape
	for i, e := range sh.coupleEdge {
		s.coupleK[i] = s.heatK[e]
	}
	rel, frac := s.relFlow, s.airFrac
	for i := range rel {
		rel[i] = 0
	}
	rel[sh.inletIdx] = 1
	propagate := func(nd int32) {
		for p := sh.airOutOff[nd]; p < sh.airOutOff[nd+1]; p++ {
			e := sh.outEdge[p]
			ae := sh.airEdges[e]
			rel[ae.b] += float64(rel[ae.a] * frac[e])
		}
	}
	propagate(int32(sh.inletIdx))
	for _, nd := range sh.airSteps {
		propagate(nd)
	}
	w := s.flowW
	for p := range w {
		w[p] = frac[sh.flowEdge[p]] * rel[sh.flowFrom[p]]
	}
	for j, n := range sh.airSteps {
		var wsum, ksum float64
		for p := sh.airInOff[n]; p < sh.airInOff[n+1]; p++ {
			wsum += w[p]
		}
		for i := sh.coupleOff[n]; i < sh.coupleOff[n+1]; i++ {
			ksum += s.coupleK[i]
		}
		ac := &s.airCoefs[j]
		ac.wSum = wsum
		ac.fCoef = float64(units.AirDensity * rel[n] * s.fan * float64(units.AirSpecificHeat))
		ac.fkSum = ac.fCoef + ksum
	}
}

// setTable interns coefficient sets by value. The key is the shape's id
// followed by the bits of every raw constant, so equal keys mean equal
// constants — and, through compile, equal derived coefficients. stage
// is the scratch set a binding builds the machine's constants in
// (room.stage); unbound sets wait in free for the next new set of their
// shape, so fiddles that toggle between two values allocate nothing
// after the first round trip.
type setTable struct {
	sets   map[string]*coefSet
	free   map[*kernelShape][]*coefSet
	stage  coefSet
	key    []byte
	models map[thermo.PowerModel]uint64 // comparable models -> id
	nextID uint64

	// The slabs new sets are carved from (newSet).
	slab, coldSlab []float64
	coefSlab       []airCoef
	slabSets       int
}

func newSetTable() setTable {
	return setTable{
		sets:   map[string]*coefSet{},
		free:   map[*kernelShape][]*coefSet{},
		models: map[thermo.PowerModel]uint64{},
	}
}

// newSet carves a set for shape sh out of the table's slabs: the floats
// the kernels read are adjacent windows of one slab, its air
// coefficients a window of a second and its air fractions, which only
// compile reads, of a third. Sets made one after another — a room whose
// machines all differ — then lie one after another in memory, as the
// machines' own windows do, with nothing the kernels skip between them.
// Slabs that cannot fit the set are replaced by ones twice the size, up
// to maxSlabSets sets' worth; the old ones stay live through their
// sets.
func (t *setTable) newSet(sh *kernelShape) *coefSet {
	nc, na, steps := len(sh.compNode), len(sh.airEdges), len(sh.airSteps)
	lens := [...]int{len(sh.heatEdges), nc, len(sh.coupleOther), na, len(sh.names)}
	hot := 0
	for _, n := range lens {
		hot += n
	}
	if cap(t.slab)-len(t.slab) < hot || cap(t.coefSlab)-len(t.coefSlab) < steps || cap(t.coldSlab)-len(t.coldSlab) < na {
		t.slabSets = min(2*t.slabSets+1, maxSlabSets)
		t.slab = make([]float64, 0, t.slabSets*hot)
		t.coefSlab = make([]airCoef, 0, t.slabSets*steps)
		t.coldSlab = make([]float64, 0, t.slabSets*na)
	}
	s := &coefSet{
		shape:    sh,
		airCoefs: carve(&t.coefSlab, steps),
		airFrac:  carve(&t.coldSlab, na),
		models:   make([]thermo.PowerModel, nc),
		modelIDs: make([]uint64, nc),
	}
	for i, dst := range [...]*[]float64{&s.heatK, &s.invThermal, &s.coupleK, &s.flowW, &s.relFlow} {
		*dst = carve(&t.slab, lens[i])
	}
	return s
}

// carve takes the next n elements of slab's spare capacity.
func carve[T any](slab *[]T, n int) []T {
	lo := len(*slab)
	*slab = (*slab)[:lo+n]
	return (*slab)[lo : lo+n : lo+n]
}

// maxSlabSets caps how many sets one slab is sized for.
const maxSlabSets = 1024

// modelID identifies a power model in set keys: equal comparable models
// share an id, and a model that cannot be compared gets one of its own,
// so machines holding it never share a set (still correct, only
// unshared).
func (t *setTable) modelID(pm thermo.PowerModel) uint64 {
	if pm != nil && !reflect.ValueOf(pm).Comparable() {
		t.nextID++
		return t.nextID
	}
	id, ok := t.models[pm]
	if !ok {
		t.nextID++
		id = t.nextID
		t.models[pm] = id
	}
	return id
}

// appendKey appends set s's key: its shape id and the bits of its raw
// constants.
func (s *coefSet) appendKey(k []byte) []byte {
	k = binary.LittleEndian.AppendUint32(k, uint32(s.shape.id))
	k = binary.LittleEndian.AppendUint64(k, math.Float64bits(s.fan))
	for _, vs := range [][]float64{s.heatK, s.airFrac, s.invThermal} {
		for _, v := range vs {
			k = binary.LittleEndian.AppendUint64(k, math.Float64bits(v))
		}
	}
	for _, id := range s.modelIDs {
		k = binary.LittleEndian.AppendUint64(k, id)
	}
	return k
}

// intern binds the staged constants in place of old (nil for a machine
// not yet bound) and returns the set they belong to: an existing set of
// equal constants, or a new one compiled from them. old loses a
// reference first, so a machine alone in its set recompiles that set's
// windows in place.
func (t *setTable) intern(old *coefSet) *coefSet {
	t.key = t.stage.appendKey(t.key[:0])
	if s, ok := t.sets[string(t.key)]; ok {
		if s != old {
			s.refs++
			t.release(old)
		}
		return s
	}
	t.release(old)
	sh := t.stage.shape
	var s *coefSet
	if free := t.free[sh]; len(free) > 0 {
		s = free[len(free)-1]
		t.free[sh] = free[:len(free)-1]
	} else {
		s = t.newSet(sh)
	}
	s.copyRaw(&t.stage)
	s.compile()
	if s.key != string(t.key) { // a set toggled out and back keeps its key
		s.key = string(t.key)
	}
	s.refs = 1
	t.sets[s.key] = s
	return s
}

// release drops one reference to s; an unreferenced set leaves the
// table and its windows wait for reuse.
func (t *setTable) release(s *coefSet) {
	if s == nil {
		return
	}
	if s.refs--; s.refs == 0 {
		delete(t.sets, s.key)
		t.free[s.shape] = append(t.free[s.shape], s)
	}
}

// stageShape sizes the table's stage for shape sh; its raw constants
// are whatever the last binding left.
func (r *room) stageShape(sh *kernelShape) *coefSet {
	st := &r.sets.stage
	nc := len(sh.compNode)
	st.shape = sh
	st.heatK = resize(st.heatK, len(sh.heatEdges))
	st.airFrac = resize(st.airFrac, len(sh.airEdges))
	st.invThermal = resize(st.invThermal, nc)
	st.models = resize(st.models, nc)
	st.modelIDs = resize(st.modelIDs, nc)
	return st
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// stage loads machine mi's current constants into the table's stage,
// for a fiddle to edit before bind.
func (r *room) stage(mi int) *coefSet {
	cur := r.ms[mi].set
	st := r.stageShape(cur.shape)
	st.copyRaw(cur)
	return st
}

// offFanFraction is the share of nominal fan flow that still moves
// through a machine that is powered off: 10 %, natural draft through
// the chassis.
const offFanFraction = 0.1

// bind moves machine mi to the set of the staged constants, with the
// fan flow and draft of its current fan and power state. This is the
// one path by which a machine's set changes (kernel.go's invalidation
// rules).
func (r *room) bind(mi int) {
	m := &r.ms[mi]
	fan := m.fanM3s
	if !m.on {
		fan *= offFanFraction
	}
	r.sets.stage.fan = fan
	m.set = r.sets.intern(m.set)
}

// refreshDraws recomputes machine mi's cached component draws from its
// power state, utilization streams, power scales and its set's power
// models. Must be called after any of those change. The cached value is
// bit-equal to the historical per-step recomputation because power
// models are pure functions of utilization.
func (r *room) refreshDraws(mi int) {
	m := &r.ms[mi]
	sh, models := m.shape, m.set.models
	ck := win(r.compK, m.comp, len(models))
	scales := r.scalesOf(mi)
	utils := r.utilsOf(mi)
	for i := range ck {
		draw := 0.0
		if pm := models[i]; m.on && pm != nil {
			var u units.Fraction // 0 for UtilNone
			if ui := sh.compUtil[i]; ui >= 0 {
				u = units.Fraction(utils[ui])
			}
			draw = float64(pm.Power(u)) * scales[i]
		}
		ck[i].draw = draw
	}
}

// stepQuad performs the heat-flow and intra-machine air-flow traversals
// for the four machines of q, which must be distinct and bound to set,
// and returns the largest absolute temperature change of any node of
// each during the step. The lanes' temperatures are gathered into the
// interleaved scratch — snap holds the step's starting temperatures and
// cur the ones being computed, node j of lane l at 4*j+l, netQ alike —
// and scattered back to the machines' windows at the end, so every loop
// indexes one slice per quantity however many lanes it runs. Each
// coefficient is loaded once for the four lanes and each branch on one
// is taken once; each lane performs exactly the expressions, in exactly
// the order, of stepping its machine alone. The scratch must hold four
// lanes of the shape's node count. It allocates nothing.
func (r *room) stepQuad(set *coefSet, q [4]int32, dt float64, snap, cur, netQ []float64) [4]float64 {
	sh := set.shape
	n := len(sh.names)
	m0, m1, m2, m3 := &r.ms[q[0]], &r.ms[q[1]], &r.ms[q[2]], &r.ms[q[3]]
	t0, t1, t2, t3 := win(r.temps, m0.node, n), win(r.temps, m1.node, n), win(r.temps, m2.node, n), win(r.temps, m3.node, n)
	s, t, nq := snap[:4*n], cur[:4*n], netQ[:4*n]
	for j := range t0 {
		o := 4 * j
		sj, tj, qj := s[o:o+4:o+4], t[o:o+4:o+4], nq[o:o+4:o+4]
		sj[0], sj[1], sj[2], sj[3] = t0[j], t1[j], t2[j], t3[j]
		tj[0], tj[1], tj[2], tj[3] = sj[0], sj[1], sj[2], sj[3]
		qj[0], qj[1], qj[2], qj[3] = 0, 0, 0, 0
	}

	// Traversal 1: inter-component heat flow (Equations 1, 2, 3).
	hk := set.heatK[:len(sh.heatEdges)] // resliced to drop bounds checks, as in stepPair
	for i, e := range sh.heatEdges {
		k := hk[i]
		a, b := 4*int(e.a), 4*int(e.b)
		sa, sb := s[a:a+4:a+4], s[b:b+4:b+4]
		x0 := float64(k * (sa[0] - sb[0]) * dt)
		x1 := float64(k * (sa[1] - sb[1]) * dt)
		x2 := float64(k * (sa[2] - sb[2]) * dt)
		x3 := float64(k * (sa[3] - sb[3]) * dt)
		qa := nq[a : a+4 : a+4]
		qa[0] -= x0
		qa[1] -= x1
		qa[2] -= x2
		qa[3] -= x3
		qb := nq[b : b+4 : b+4]
		qb[0] += x0
		qb[1] += x1
		qb[2] += x2
		qb[3] += x3
	}
	// Power dissipation plus component temperature updates (Equation 5),
	// fused as in stepPair; energy accrues through one register per lane.
	e0, e1, e2, e3 := r.energy[q[0]], r.energy[q[1]], r.energy[q[2]], r.energy[q[3]]
	nc := len(sh.compNode)
	c0, c1, c2, c3 := win(r.compK, m0.comp, nc), win(r.compK, m1.comp, nc), win(r.compK, m2.comp, nc), win(r.compK, m3.comp, nc)
	inv := set.invThermal[:nc]
	for i, node := range sh.compNode {
		k := inv[i]
		o := 4 * int(node)
		sj, tj, qj := s[o:o+4:o+4], t[o:o+4:o+4], nq[o:o+4:o+4]
		d0, d1, d2, d3 := c0[i].draw, c1[i].draw, c2[i].draw, c3[i].draw
		c0[i].cur, c1[i].cur, c2[i].cur, c3[i].cur = d0, d1, d2, d3
		x0, x1, x2, x3 := float64(d0*dt), float64(d1*dt), float64(d2*dt), float64(d3*dt)
		n0, n1, n2, n3 := qj[0]+x0, qj[1]+x1, qj[2]+x2, qj[3]+x3
		qj[0], qj[1], qj[2], qj[3] = n0, n1, n2, n3
		e0 += x0
		e1 += x1
		e2 += x2
		e3 += x3
		tj[0] = sj[0] + float64(n0*k)
		tj[1] = sj[1] + float64(n1*k)
		tj[2] = sj[2] + float64(n2*k)
		tj[3] = sj[3] + float64(n3*k)
	}
	r.energy[q[0]], r.energy[q[1]], r.energy[q[2]], r.energy[q[3]] = e0, e1, e2, e3

	// Traversal 2: intra-machine air movement, as in stepPair.
	o := 4 * sh.inletIdx
	ti := t[o : o+4 : o+4]
	ti[0], ti[1], ti[2], ti[3] = r.inlet[q[0]], r.inlet[q[1]], r.inlet[q[2]], r.inlet[q[3]]
	w, kk, coefs := set.flowW[:len(sh.airEdges)], set.coupleK[:len(sh.coupleOther)], set.airCoefs[:len(sh.airSteps)]
	airInOff, flowFrom := sh.airInOff, sh.flowFrom
	coupleOff, coupleOther := sh.coupleOff, sh.coupleOther
	for j, nd := range sh.airSteps {
		var ts0, ts1, ts2, ts3 float64
		for p, end := airInOff[nd], airInOff[nd+1]; p < end; p++ {
			f := 4 * int(flowFrom[p])
			wp, tf := w[p], t[f:f+4:f+4]
			ts0 += float64(wp * tf[0])
			ts1 += float64(wp * tf[1])
			ts2 += float64(wp * tf[2])
			ts3 += float64(wp * tf[3])
		}
		ac := &coefs[j]
		o := 4 * int(nd)
		sj := s[o : o+4 : o+4]
		mix0, mix1, mix2, mix3 := sj[0], sj[1], sj[2], sj[3] // a stagnant region keeps its old temperature
		if ws := ac.wSum; ws > 0 {
			mix0, mix1, mix2, mix3 = ts0/ws, ts1/ws, ts2/ws, ts3/ws
		}
		var k0, k1, k2, k3 float64
		for p, end := coupleOff[nd], coupleOff[nd+1]; p < end; p++ {
			f := 4 * int(coupleOther[p])
			kp, tf := kk[p], t[f:f+4:f+4]
			k0 += float64(kp * tf[0])
			k1 += float64(kp * tf[1])
			k2 += float64(kp * tf[2])
			k3 += float64(kp * tf[3])
		}
		if fk := ac.fkSum; fk > 0 {
			fc := ac.fCoef
			mix0 = (float64(fc*mix0) + k0) / fk
			mix1 = (float64(fc*mix1) + k1) / fk
			mix2 = (float64(fc*mix2) + k2) / fk
			mix3 = (float64(fc*mix3) + k3) / fk
		}
		tj := t[o : o+4 : o+4]
		tj[0], tj[1], tj[2], tj[3] = mix0, mix1, mix2, mix3
	}

	// Exhaust mix for the room-level traversal of the next step. The
	// weight sum is a function of the set alone, so every lane's equals
	// the one computed here.
	rel := set.relFlow[:n]
	var ws, x0, x1, x2, x3 float64
	for _, x := range sh.exhaustIdx {
		f, o := rel[x], 4*int(x)
		tx := t[o : o+4 : o+4]
		ws += f
		x0 += float64(f * tx[0])
		x1 += float64(f * tx[1])
		x2 += float64(f * tx[2])
		x3 += float64(f * tx[3])
	}
	if ws > 0 {
		r.exhaust[q[0]], r.exhaust[q[1]], r.exhaust[q[2]], r.exhaust[q[3]] = x0/ws, x1/ws, x2/ws, x3/ws
	}

	// Scatter back to the windows and take each lane's largest change.
	// math.Abs differs from stepPair's negation only in the sign of a
	// zero, which never raises a maximum that starts at zero.
	var d0, d1, d2, d3 float64
	for j := range t0 {
		o := 4 * j
		sj, tj := s[o:o+4:o+4], t[o:o+4:o+4]
		v0, v1, v2, v3 := tj[0], tj[1], tj[2], tj[3]
		t0[j], t1[j], t2[j], t3[j] = v0, v1, v2, v3
		if x := math.Abs(v0 - sj[0]); x > d0 {
			d0 = x
		}
		if x := math.Abs(v1 - sj[1]); x > d1 {
			d1 = x
		}
		if x := math.Abs(v2 - sj[2]); x > d2 {
			d2 = x
		}
		if x := math.Abs(v3 - sj[3]); x > d3 {
			d3 = x
		}
	}
	return [4]float64{d0, d1, d2, d3}
}

// stepPair performs the heat-flow and intra-machine air-flow traversals
// for machines a and b, which must share one shape, and returns the
// largest absolute temperature change of any node of each during the
// step. Every loop runs both machines as interleaved lanes, so the
// dependent divisions of one machine's air chain overlap the other's.
// Each lane reads only its own machine's windows, its own set and its
// own scratch lane (snap[0], netQ[0] for a; snap[1], netQ[1] for b),
// and performs exactly the expressions, in exactly the order, of
// stepping that machine alone. A machine without a partner is stepped
// as a == b: both lanes read the same snapshot and write identical
// values to the same windows, because every lane writes after both
// lanes' reads of it. The scratch lanes must be at least as long as the
// shape's node count. It allocates nothing.
func (r *room) stepPair(a, b int, dt float64, snap, netQ [2][]float64) (float64, float64) {
	ma, mb := &r.ms[a], &r.ms[b]
	setA, setB := ma.set, mb.set
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

	// Traversal 1: inter-component heat flow (Equations 1, 2, 3). Every
	// set window is resliced to its shape's length, which lets the
	// compiler drop the bounds checks of the loops over the shape.
	ne := len(sh.heatEdges)
	hA, hB := setA.heatK[:ne], setB.heatK[:ne]
	for i, e := range sh.heatEdges {
		xa := float64(hA[i] * (sA[e.a] - sA[e.b]) * dt)
		xb := float64(hB[i] * (sB[e.a] - sB[e.b]) * dt)
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
	iA, iB := setA.invThermal[:nc], setB.invThermal[:nc]
	for i, node := range sh.compNode {
		ca, cb := &cA[i], &cB[i]
		da, db := ca.draw, cb.draw
		ca.cur = da
		cb.cur = db
		xa, xb := float64(da*dt), float64(db*dt)
		na, nb := qA[node]+xa, qB[node]+xb
		qA[node] = na
		qB[node] = nb
		eA += xa
		eB += xb
		tA[node] = sA[node] + float64(na*iA[i])
		tB[node] = sB[node] + float64(nb*iB[i])
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
	// F, sum_j k_j, and the flow weights are the set's (compile); only
	// the temperature-dependent sums run here. The inlet is assigned up
	// front: it precedes every reader in topological order, so airSteps
	// never needs the branch.
	tA[sh.inletIdx] = r.inlet[a]
	tB[sh.inletIdx] = r.inlet[b]
	na, nk, ns := len(sh.airEdges), len(sh.coupleOther), len(sh.airSteps)
	wA, wB := setA.flowW[:na], setB.flowW[:na]
	kA, kB := setA.coupleK[:nk], setB.coupleK[:nk]
	fA, fB := setA.airCoefs[:ns], setB.airCoefs[:ns]
	airInOff, flowFrom := sh.airInOff, sh.flowFrom
	coupleOff, coupleOther := sh.coupleOff, sh.coupleOther
	for j, nd := range sh.airSteps {
		var tsA, tsB float64
		for p := airInOff[nd]; p < airInOff[nd+1]; p++ {
			from := flowFrom[p]
			tsA += float64(wA[p] * tA[from])
			tsB += float64(wB[p] * tB[from])
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
			kTA += float64(kA[p] * tA[other])
			kTB += float64(kB[p] * tB[other])
		}
		if acA.fkSum > 0 {
			mixA = (float64(acA.fCoef*mixA) + kTA) / acA.fkSum
		}
		if acB.fkSum > 0 {
			mixB = (float64(acB.fCoef*mixB) + kTB) / acB.fkSum
		}
		tA[nd] = mixA
		tB[nd] = mixB
	}

	// Exhaust mix for the room-level traversal of the next step.
	rA, rB := setA.relFlow[:n], setB.relFlow[:n]
	var wsA, tsA, wsB, tsB float64
	for _, x := range sh.exhaustIdx {
		fa, fb := rA[x], rB[x]
		wsA += fa
		tsA += float64(fa * tA[x])
		wsB += fb
		tsB += float64(fb * tB[x])
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

// stepQuiescent advances a machine that the active set proved to be at
// a bitwise fixed point: temperatures, exhaust mix, and per-step
// deltas are unchanged by construction, so only the energy accrual
// runs — as the same per-component sequential additions the kernels
// perform, keeping the energy counter bit-identical too.
func (r *room) stepQuiescent(mi int, dt float64) {
	m := &r.ms[mi]
	energy := r.energy[mi]
	for _, c := range win(r.compK, m.comp, len(m.shape.compNode)) {
		energy += float64(c.draw * dt)
	}
	r.energy[mi] = energy
}
