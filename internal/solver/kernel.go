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
// parts (docs/performance.md, "Lane-major blocks"):
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
//   - the machine's own numbers. Each shard groups its machines by
//     shape, in shard order, into blocks of four lanes (block), and a
//     block stores its machines' temperatures and draws lane-major: one
//     [4]float64 row per node (or component) in room-wide arrays, the
//     machine's lane of each. The last block of a shape in a shard may
//     have idle lanes. A machine's block depends only on its shape,
//     which never changes, so no fiddle, restore or power-on moves it.
//     Utilizations and power scales are machine-major windows (bases),
//     and energy, inlet, exhaust, pin and flags are per machine.
//
// Every coefficient in a set is computed by the same expression, in
// the same order, as the historical per-step code, so the step loop is
// pure slice arithmetic — no map lookups, no interface calls, no
// allocations — and produces exactly the bits of recomputing
// everything from scratch.
//
// One function advances temperatures: stepBlock steps a block's four
// lanes where they lie. It reads every coefficient as four lanes
// (laneSet): a block of four machines that share one set reads that
// set's broadcast copy, and any other block reads an interleaved copy
// of its own, which a rebind rebuilds in place. Idle lanes read zero
// coefficients and nothing reads their results. Each lane performs
// exactly the expressions, in exactly the order, of stepping its
// machine alone. Every product that feeds a sum is written
// float64(x*y), which the Go specification forbids fusing into a
// multiply-add, so the bits are the same on every architecture. Where
// the CPU has AVX, the same function runs as assembly, one instruction
// per row of four lanes and two blocks per call (kernel_amd64.go);
// stepBlock stays its reference.
//
// Invalidation rules:
//
//	bind          — the machine's set and its block's coefficients;
//	    rerun after anything that changes a set constant: SetHeatK,
//	    SetAirFraction, SetFanFlow, SetMachinePower (the draft),
//	    RestoreState. A new set compiles its derived coefficients
//	    (coefSet.compile) once.
//	stale         — the machine's draws; set after SetUtilization,
//	    SetPowerScale, SetMachinePower, RestoreState. The step phase
//	    refreshes a stale machine's draws (refreshDraws) when it
//	    reaches the machine's block, so the stored draws are always
//	    those of the last step the machine executed, until its next.
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

	kern shapeKern // the AVX kernel's offsets (compileKern), with AVX
}

// bases locates one machine's window in each machine-major array; a
// shape gives every window's length.
type bases struct {
	comp, util int32
}

// advance moves b past one machine of shape sh.
func (b *bases) advance(sh *kernelShape) {
	b.comp += int32(len(sh.compNode))
	b.util += int32(len(sh.utilKeys))
}

// win is one machine's window of a room-wide array.
func win[T any](a []T, base int32, n int) []T {
	return a[base : int(base)+n : int(base)+n]
}

// airCoef bundles the cached per-air-step coefficients: the sum of
// incoming flow weights, the heat-capacity flow F = rho*c*relFlow*fan,
// and fkSum = F + kSum.
type airCoef struct {
	wSum  float64
	fCoef float64
	fkSum float64
}

// machine is one machine's per-machine scalars, its place in its block
// and the bases of its windows. The hot numbers live in the room arrays
// and its set, not here.
type machine struct {
	shape *kernelShape
	set   *coefSet
	bases
	blk    int32 // its block in room.blocks
	lane   int32 // its lane in that block
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

// block is up to four machines of one shape stepped as the lanes of one
// kernel call (stepBlock). Its machines' temperatures are rows node..
// node+len(names) of room.temps and their draws rows comp..comp+
// len(compNode) of room.draws, machine ms[l] in lane l of each row. An
// idle lane (l >= lanes) names lane 0's machine, whose inlet it reads,
// and has zero coefficients and draws (bindBlock); nothing reads what
// it computes.
type block struct {
	shape      *kernelShape
	node, comp int32
	lanes      int32
	ms         [4]int32
	probe      [4]int32 // where each owned lane's first node is in Probes order
	coef       *laneSet // the lanes' coefficients (bindBlock)
	own        *laneSet // the block's interleaved copy, once it needs one
}

// room holds every machine's own numbers — per machine, lane-major in
// its block, or in machine-major windows — and the table of the sets
// they are bound to. Blocks and windows of different machines never
// overlap, so shard owners write disjoint elements.
type room struct {
	ms     []machine
	sets   setTable
	blocks []block
	kerns  []blockKern // with AVX, the kernel's pointers of each block (bindKern)

	temps    [][4]float64 // block rows, one per node
	draws    [][4]float64 // block rows, one per component: watts for the next step
	scales   []float64    // comp windows: fiddle's CPU-throttle scale, 1 by default
	utilVals []float64    // util windows, utilKeys order

	// Per machine: cumulative joules drawn, effective inlet of this
	// step, flow-weighted exhaust mix of the last step, and the active
	// set's flags. quiet is true when the last executed step moved
	// no node (max delta exactly 0); dirty is set by any input change
	// (fiddle op, utilization update, inlet movement) and cleared when
	// the machine steps. A quiet, clean machine is at a bitwise fixed
	// point of the step map, so the step skips it. stale says its draws
	// predate its utilizations, power scales, power state or set, and
	// implies dirty.
	energy  []float64
	inlet   []float64
	exhaust []float64
	quiet   []bool
	dirty   []bool
	stale   []bool
}

// newRoom sizes the machine-major arrays for n machines whose windows
// end at total; the block arrays come with the blocks (layBlocks).
func newRoom(n int, total bases) room {
	return room{
		ms:       make([]machine, n),
		sets:     newSetTable(),
		scales:   make([]float64, total.comp),
		utilVals: make([]float64, total.util),
		energy:   make([]float64, n),
		inlet:    make([]float64, n),
		exhaust:  make([]float64, n),
		quiet:    make([]bool, n),
		dirty:    make([]bool, n),
		stale:    make([]bool, n),
	}
}

// tempsOf is machine mi's temperature rows, in its shape's node order,
// and its lane in them: node j's temperature is rows[j][lane].
func (r *room) tempsOf(mi int) (rows [][4]float64, lane int32) {
	m := &r.ms[mi]
	b := &r.blocks[m.blk]
	return win(r.temps, b.node, len(m.shape.names)), m.lane
}

// drawsOf is machine mi's draw rows, in component order, and its lane.
func (r *room) drawsOf(mi int) (rows [][4]float64, lane int32) {
	m := &r.ms[mi]
	b := &r.blocks[m.blk]
	return win(r.draws, b.comp, len(m.shape.compNode)), m.lane
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

// place fills machine mi's windows from its model, binds it to the set
// of its constants and leaves its draws stale. sh must be the shape
// interned for m and name m's name. repeat says that m's body and fan
// flow equal those of machine mi-1's model: its constants are then that
// machine's, so it joins that machine's set without staging or keying
// them, as intern's hit path would.
func (r *room) place(mi int, m *model.Machine, sh *kernelShape, at bases, repeat bool, name string) {
	r.ms[mi] = machine{
		shape:  sh,
		bases:  at,
		on:     true,
		fanM3s: m.FanFlow.CubicMetersPerSecond(),
		nomCFM: m.FanFlow,
		name:   name,
	}
	scales := r.scalesOf(mi)
	for i := range scales {
		scales[i] = 1
	}
	r.inlet[mi] = float64(m.InletTemp)
	r.dirty[mi] = true
	r.stale[mi] = true
	if repeat {
		set := r.ms[mi-1].set
		set.refs++
		r.ms[mi].set = set
		return
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
	r.bindSet(mi)
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
	if haveAVX {
		sh.compileKern()
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
	refs  int32    // machines bound to the set
	key   string   // its setTable key
	wide  *laneSet // every coefficient four times, once a block reads it (broadcast)
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
	if s.wide != nil {
		s.wide.broadcast(s)
	}
}

// laneSet is what the kernel reads of four lanes' sets: every
// coefficient as a [4]float64, lane l's from lane l's set.
type laneSet struct {
	rows       [][4]float64  // every row below, in this order, one window
	heatK      [][4]float64  // heat edges, model order
	invThermal [][4]float64  // components
	coupleK    [][4]float64  // couples
	flowW      [][4]float64  // air edges, CSR order
	exhaustW   [][4]float64  // exhaust nodes: relative flow
	airCoefs   []laneAirCoef // airSteps order
}

// laneAirCoef is one air step's airCoef for four lanes.
type laneAirCoef struct {
	wSum, fCoef, fkSum [4]float64
}

// setLane makes lane l's coefficients those of set s.
func (ls *laneSet) setLane(l int, s *coefSet) {
	for i, v := range s.heatK {
		ls.heatK[i][l] = v
	}
	for i, v := range s.invThermal {
		ls.invThermal[i][l] = v
	}
	for i, v := range s.coupleK {
		ls.coupleK[i][l] = v
	}
	for i, v := range s.flowW {
		ls.flowW[i][l] = v
	}
	for i, x := range s.shape.exhaustIdx {
		ls.exhaustW[i][l] = s.relFlow[x]
	}
	for j, ac := range s.airCoefs {
		lc := &ls.airCoefs[j]
		lc.wSum[l], lc.fCoef[l], lc.fkSum[l] = ac.wSum, ac.fCoef, ac.fkSum
	}
}

// clearLane makes lane l's coefficients zero.
func (ls *laneSet) clearLane(l int) {
	for i := range ls.rows {
		ls.rows[i][l] = 0
	}
	for j := range ls.airCoefs {
		lc := &ls.airCoefs[j]
		lc.wSum[l], lc.fCoef[l], lc.fkSum[l] = 0, 0, 0
	}
}

// broadcast makes every lane's coefficients those of set s.
func (ls *laneSet) broadcast(s *coefSet) {
	for l := 0; l < 4; l++ {
		ls.setLane(l, s)
	}
}

// lanes is s's broadcast copy, built on first use; compile keeps it
// current from then on, and a set reused from the free list keeps its
// copy.
func (t *setTable) lanes(s *coefSet) *laneSet {
	if s.wide == nil {
		s.wide = t.newLaneSet(s.shape)
		s.wide.broadcast(s)
	}
	return s.wide
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

	// The slabs new sets are carved from (newSet), and those lane sets
	// are carved from (newLaneSet).
	slab, coldSlab []float64
	coefSlab       []airCoef
	slabSets       int
	laneSlab       [][4]float64
	laneCoefSlab   []laneAirCoef
	laneSlabSets   int
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

// newLaneSet carves a lane set for shape sh out of the table's lane
// slabs, as newSet carves a set: lane sets made one after another — the
// blocks of a room whose machines all differ — lie one after another.
func (t *setTable) newLaneSet(sh *kernelShape) *laneSet {
	lens := [...]int{len(sh.heatEdges), len(sh.compNode), len(sh.coupleOther), len(sh.airEdges), len(sh.exhaustIdx)}
	rows, steps := 0, len(sh.airSteps)
	for _, n := range lens {
		rows += n
	}
	if cap(t.laneSlab)-len(t.laneSlab) < rows || cap(t.laneCoefSlab)-len(t.laneCoefSlab) < steps {
		t.laneSlabSets = min(2*t.laneSlabSets+1, maxSlabSets)
		t.laneSlab = make([][4]float64, 0, t.laneSlabSets*rows)
		t.laneCoefSlab = make([]laneAirCoef, 0, t.laneSlabSets*steps)
	}
	ls := &laneSet{rows: carve(&t.laneSlab, rows), airCoefs: carve(&t.laneCoefSlab, steps)}
	lo := 0
	for i, dst := range [...]*[][4]float64{&ls.heatK, &ls.invThermal, &ls.coupleK, &ls.flowW, &ls.exhaustW} {
		*dst = ls.rows[lo : lo+lens[i] : lo+lens[i]]
		lo += lens[i]
	}
	return ls
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
// fan flow and draft of its current fan and power state, and rebuilds
// its block's coefficients. This is the one path by which a machine's
// set changes after New (kernel.go's invalidation rules).
func (r *room) bind(mi int) {
	r.bindSet(mi)
	r.bindBlock(r.ms[mi].blk)
}

// bindSet moves machine mi to the set of the staged constants.
func (r *room) bindSet(mi int) {
	m := &r.ms[mi]
	fan := m.fanM3s
	if !m.on {
		fan *= offFanFraction
	}
	r.sets.stage.fan = fan
	m.set = r.sets.intern(m.set)
}

// bindBlock points block b at its lanes' coefficients: the broadcast
// copy of their set when its four machines share one, else its own
// interleaved copy, rebuilt in place. An idle lane's coefficients are
// zero, so it holds its temperatures and takes none of the air steps'
// divisions, which a lone machine's block would otherwise wait on.
// With AVX it rebinds the kernel's pointers too.
func (r *room) bindBlock(bi int32) {
	b := &r.blocks[bi]
	set := r.ms[b.ms[0]].set
	shared := b.lanes == 4
	for _, mi := range b.ms[1:b.lanes] {
		shared = shared && r.ms[mi].set == set
	}
	if shared {
		b.coef = r.sets.lanes(set)
	} else {
		if b.own == nil {
			b.own = r.sets.newLaneSet(b.shape)
		}
		for l, mi := range b.ms[:b.lanes] {
			b.own.setLane(l, r.ms[mi].set)
		}
		for l := int(b.lanes); l < 4; l++ {
			b.own.clearLane(l)
		}
		b.coef = b.own
	}
	if haveAVX {
		r.bindKern(bi)
	}
}

// refreshDraws recomputes machine mi's draws from its power state,
// utilization streams, power scales and its set's power models, and
// clears its stale flag. The draws are bit-equal to the historical
// per-step recomputation because power models are pure functions of
// utilization.
func (r *room) refreshDraws(mi int) {
	m := &r.ms[mi]
	sh, models := m.shape, m.set.models
	rows, l := r.drawsOf(mi)
	scales := r.scalesOf(mi)
	utils := r.utilsOf(mi)
	for i := range rows {
		draw := 0.0
		if pm := models[i]; m.on && pm != nil {
			var u units.Fraction // 0 for UtilNone
			if ui := sh.compUtil[i]; ui >= 0 {
				u = units.Fraction(utils[ui])
			}
			draw = float64(pm.Power(u)) * scales[i]
		}
		rows[i][l] = draw
	}
	r.stale[mi] = false
}

// Kernel names the step kernel this process runs: "avx" where the CPU
// and OS support AVX (kernel_amd64.go), else "portable" (stepBlock).
// Both give the same bits; only the speed differs.
func Kernel() string {
	if haveAVX {
		return "avx"
	}
	return "portable"
}

// stepBlock performs the heat-flow and intra-machine air-flow
// traversals for the lanes of block b, in place, and returns the
// largest absolute temperature change of any node of each lane during
// the step. Heat edges read the start-of-step temperatures before
// anything is written; each node is then written once, and its change
// taken as it is. Each coefficient row is loaded once for the four
// lanes; each lane performs exactly the expressions, in exactly the
// order, of stepping its machine alone, so a lane's bits do not depend
// on the block or the lane it steps in. netQ is scratch of at least the
// shape's node count. The draws of b's machines must be current. It
// allocates nothing.
func (r *room) stepBlock(b *block, dt float64, netQ [][4]float64) [4]float64 {
	sh, c := b.shape, b.coef
	n, nc := len(sh.names), len(sh.compNode)
	t := win(r.temps, b.node, n)
	q := netQ[:n:n]
	for j := range q {
		q[j] = [4]float64{}
	}

	// Traversal 1: inter-component heat flow (Equations 1, 2, 3). Every
	// coefficient window is resliced to its shape's length, which lets
	// the compiler drop the bounds checks of the loops over the shape.
	hk := c.heatK[:len(sh.heatEdges)]
	for i, e := range sh.heatEdges {
		k, ta, tb := &hk[i], &t[e.a], &t[e.b]
		x0 := float64(k[0] * (ta[0] - tb[0]) * dt)
		x1 := float64(k[1] * (ta[1] - tb[1]) * dt)
		x2 := float64(k[2] * (ta[2] - tb[2]) * dt)
		x3 := float64(k[3] * (ta[3] - tb[3]) * dt)
		qa, qb := &q[e.a], &q[e.b]
		qa[0] -= x0
		qa[1] -= x1
		qa[2] -= x2
		qa[3] -= x3
		qb[0] += x0
		qb[1] += x1
		qb[2] += x2
		qb[3] += x3
	}

	// Power dissipation plus component temperature updates (Equation
	// 5). Each component owns its node, and all heat-edge contributions
	// are in, so its net heat is final once its own draw is added — the
	// temperature update fuses into the same pass. Energy accrues
	// through one register per lane with the per-component addition
	// sequence of stepQuiescent.
	ms := &b.ms
	e0, e1, e2, e3 := r.energy[ms[0]], r.energy[ms[1]], r.energy[ms[2]], r.energy[ms[3]]
	var d0, d1, d2, d3 float64
	draws, inv := win(r.draws, b.comp, nc), c.invThermal[:nc]
	for i, node := range sh.compNode {
		w, k, qj, tj := &draws[i], &inv[i], &q[node], &t[node]
		x0, x1, x2, x3 := float64(w[0]*dt), float64(w[1]*dt), float64(w[2]*dt), float64(w[3]*dt)
		e0 += x0
		e1 += x1
		e2 += x2
		e3 += x3
		o0, o1, o2, o3 := tj[0], tj[1], tj[2], tj[3]
		v0 := o0 + float64((qj[0]+x0)*k[0])
		v1 := o1 + float64((qj[1]+x1)*k[1])
		v2 := o2 + float64((qj[2]+x2)*k[2])
		v3 := o3 + float64((qj[3]+x3)*k[3])
		tj[0], tj[1], tj[2], tj[3] = v0, v1, v2, v3
		if x := math.Abs(v0 - o0); x > d0 {
			d0 = x
		}
		if x := math.Abs(v1 - o1); x > d1 {
			d1 = x
		}
		if x := math.Abs(v2 - o2); x > d2 {
			d2 = x
		}
		if x := math.Abs(v3 - o3); x > d3 {
			d3 = x
		}
	}
	es := [4]float64{e0, e1, e2, e3}
	for l, mi := range ms[:b.lanes] {
		r.energy[mi] = es[l]
	}

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
	ti := &t[sh.inletIdx]
	{
		v0, v1, v2, v3 := r.inlet[ms[0]], r.inlet[ms[1]], r.inlet[ms[2]], r.inlet[ms[3]]
		o0, o1, o2, o3 := ti[0], ti[1], ti[2], ti[3]
		ti[0], ti[1], ti[2], ti[3] = v0, v1, v2, v3
		if x := math.Abs(v0 - o0); x > d0 {
			d0 = x
		}
		if x := math.Abs(v1 - o1); x > d1 {
			d1 = x
		}
		if x := math.Abs(v2 - o2); x > d2 {
			d2 = x
		}
		if x := math.Abs(v3 - o3); x > d3 {
			d3 = x
		}
	}
	w, kk, coefs := c.flowW[:len(sh.airEdges)], c.coupleK[:len(sh.coupleOther)], c.airCoefs[:len(sh.airSteps)]
	airInOff, flowFrom := sh.airInOff, sh.flowFrom
	coupleOff, coupleOther := sh.coupleOff, sh.coupleOther
	for j, nd := range sh.airSteps {
		var ts0, ts1, ts2, ts3 float64
		for p, end := airInOff[nd], airInOff[nd+1]; p < end; p++ {
			wp, tf := &w[p], &t[flowFrom[p]]
			ts0 += float64(wp[0] * tf[0])
			ts1 += float64(wp[1] * tf[1])
			ts2 += float64(wp[2] * tf[2])
			ts3 += float64(wp[3] * tf[3])
		}
		ac, tj := &coefs[j], &t[nd]
		o0, o1, o2, o3 := tj[0], tj[1], tj[2], tj[3]
		v0, v1, v2, v3 := o0, o1, o2, o3 // a stagnant region keeps its old temperature
		if ws := ac.wSum[0]; ws > 0 {
			v0 = ts0 / ws
		}
		if ws := ac.wSum[1]; ws > 0 {
			v1 = ts1 / ws
		}
		if ws := ac.wSum[2]; ws > 0 {
			v2 = ts2 / ws
		}
		if ws := ac.wSum[3]; ws > 0 {
			v3 = ts3 / ws
		}
		var k0, k1, k2, k3 float64
		for p, end := coupleOff[nd], coupleOff[nd+1]; p < end; p++ {
			kp, tf := &kk[p], &t[coupleOther[p]]
			k0 += float64(kp[0] * tf[0])
			k1 += float64(kp[1] * tf[1])
			k2 += float64(kp[2] * tf[2])
			k3 += float64(kp[3] * tf[3])
		}
		if fk := ac.fkSum[0]; fk > 0 {
			v0 = (float64(ac.fCoef[0]*v0) + k0) / fk
		}
		if fk := ac.fkSum[1]; fk > 0 {
			v1 = (float64(ac.fCoef[1]*v1) + k1) / fk
		}
		if fk := ac.fkSum[2]; fk > 0 {
			v2 = (float64(ac.fCoef[2]*v2) + k2) / fk
		}
		if fk := ac.fkSum[3]; fk > 0 {
			v3 = (float64(ac.fCoef[3]*v3) + k3) / fk
		}
		tj[0], tj[1], tj[2], tj[3] = v0, v1, v2, v3
		if x := math.Abs(v0 - o0); x > d0 {
			d0 = x
		}
		if x := math.Abs(v1 - o1); x > d1 {
			d1 = x
		}
		if x := math.Abs(v2 - o2); x > d2 {
			d2 = x
		}
		if x := math.Abs(v3 - o3); x > d3 {
			d3 = x
		}
	}

	// Exhaust mix for the room-level traversal of the next step.
	var ws0, ws1, ws2, ws3, x0, x1, x2, x3 float64
	for i, x := range sh.exhaustIdx {
		f, tx := &c.exhaustW[i], &t[x]
		ws0 += f[0]
		ws1 += f[1]
		ws2 += f[2]
		ws3 += f[3]
		x0 += float64(f[0] * tx[0])
		x1 += float64(f[1] * tx[1])
		x2 += float64(f[2] * tx[2])
		x3 += float64(f[3] * tx[3])
	}
	ws, xs := [4]float64{ws0, ws1, ws2, ws3}, [4]float64{x0, x1, x2, x3}
	for l, mi := range ms[:b.lanes] {
		if ws[l] > 0 {
			r.exhaust[mi] = xs[l] / ws[l]
		}
	}
	return [4]float64{d0, d1, d2, d3}
}

// stepQuiescent advances a machine that the active set proved to be at
// a bitwise fixed point: temperatures, exhaust mix, and per-step
// deltas are unchanged by construction, so only the energy accrual
// runs — as the same per-component sequential additions the kernels
// perform, keeping the energy counter bit-identical too.
func (r *room) stepQuiescent(mi int, dt float64) {
	rows, l := r.drawsOf(mi)
	energy := r.energy[mi]
	for i := range rows {
		energy += float64(rows[i][l] * dt)
	}
	r.energy[mi] = energy
}
