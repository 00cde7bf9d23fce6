// Package solver implements the Mercury temperature solver: a
// coarse-grained finite-element analyzer that advances component and
// air-region temperatures in discrete time steps (Section 2.2 of the
// paper). Each step performs three traversals:
//
//  1. inter-component heat flow over the undirected heat-flow graph
//     (Newton's law of cooling plus component power dissipation),
//  2. intra-machine air movement over the directed air-flow graph
//     (flow-weighted perfect mixing plus heat pickup), and
//  3. inter-machine air movement over the room-level graph (machine
//     inlets mix air-conditioner supply and upstream exhausts).
//
// The solver is safe for concurrent use: the network daemon queries
// temperatures and applies fiddle operations while a stepping loop
// advances emulated time.
//
// Within one step, per-machine work is partitioned into topology-aware
// shards, each owned persistently by one worker of a sense-barrier
// pool (see Config.Workers, pool.go, and docs/performance.md):
// traversal 3 runs as a parallel phase over all shards, a barrier,
// then traversals 1+2 run as a second parallel phase. StepN and Run
// publish whole batches of ticks to the workers at once. Per-machine
// work runs on the flat compiled kernel (kernel.go). Temperatures are
// bit-identical for every worker count.
package solver

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"github.com/darklab/mercury/internal/model"
)

// Config controls solver behaviour. The zero value selects the paper's
// defaults: 1-second iterations over the whole, unpartitioned room,
// every machine starting at its inlet temperature. Every step skips
// the machines at a bitwise fixed point of the step map (stepN), so
// temperatures stay bit-identical to stepping every machine.
type Config struct {
	// Step is the emulated duration of one iteration. Default 1s.
	Step time.Duration
	// Workers is the number of goroutines that step machines in
	// parallel. 0 picks one per available CPU, but never fewer than
	// ~256 machines per worker: small rooms fall back to the serial
	// loop, where the barrier round-trip would cost more than the
	// parallelism wins (pool.go's autoShardMachines documents the
	// threshold). 1 reproduces the serial loop exactly. Per-machine
	// arithmetic is self-contained within a step, so temperatures are
	// bit-identical for every worker count — the knob only trades
	// synchronization overhead against parallelism. Negative values
	// are rejected by New.
	Workers int
	// Regions partitions the cluster's machines by name across
	// cooperating solver instances (horizontal sharding; see region.go
	// and docs/performance.md). Every instance is given the SAME full
	// cluster and the SAME Regions slice — global machine indices must
	// agree — and steps only the region selected by RegionIndex;
	// machines of other regions are exhaust placeholders refreshed
	// through the boundary exchange each tick. Every region must list
	// only existing machines and every machine must appear in exactly
	// one region (PartitionRegions builds such a cover along
	// recirculation components). Empty means unpartitioned.
	Regions [][]string
	// RegionIndex selects this instance's region in Regions. It must be
	// 0 when Regions is empty.
	RegionIndex int
}

func (c Config) withDefaults() (Config, error) {
	if c.Step <= 0 {
		c.Step = time.Second
	}
	if c.Workers < 0 {
		return c, fmt.Errorf("solver: Workers %d must be >= 0", c.Workers)
	}
	return c, nil
}

// roomEdgeKind distinguishes what feeds a machine's inlet.
type roomEdgeKind int

const (
	fromSource roomEdgeKind = iota
	fromMachine
)

// roomEdge is one compiled incoming room-level edge of a machine.
type roomEdge struct {
	kind roomEdgeKind
	ref  int // index into sources or machines
	frac float64
}

type sourceState struct {
	name   string
	supply float64
}

// shardDelta is one shard's maximum |dT| of the last executed step,
// padded to a cache line: every shard owner writes its slot every
// step, and false sharing between owners would serialize exactly the
// stores the sharding exists to keep private.
type shardDelta struct {
	v float64
	_ [56]byte
}

// solverCore holds all solver state. The public Solver is a thin
// wrapper around a *solverCore: the pool's worker goroutines reference
// only the core, so the wrapper's reachability tracks the *client's*
// references alone and its finalizer can shut the workers down when
// the client drops the solver — no explicit Close, no leaked
// goroutines keeping the solver alive (pool.go).
type solverCore struct {
	mu sync.Mutex
	// room is every machine's compiled state: per-machine records and
	// the room-wide arrays the kernel steps (kernel.go).
	room
	cfg     Config
	dt      float64          // cfg.Step in seconds, fixed at New
	byName  map[string]int32 // machine name -> global machine index
	sources []*sourceState
	srcIdx  map[string]int
	now     time.Duration
	steps   uint64

	// Parallel stepping: machines are partitioned into topology-aware
	// shards once at compile time; each shard is owned by one
	// participant of the sense-barrier pool (pool.go). batchSteps is
	// the size of the batch published by the current release; the
	// caller owns shard 0 with callerSense as its barrier sense bit.
	workers     int
	shards      []shard
	deltas      []shardDelta // per-shard max |dT| of the last step
	lastDelta   float64      // max |dT| across all machines, last step
	run         *stepRunner
	batchSteps  int
	callerSense int32

	// Region partitioning (region.go): owned lists the global indices
	// of the machines this instance steps and reports (every machine
	// when unpartitioned), ascending; ownedTemps is the same set as
	// maximal contiguous ranges of the temperature array, which is what
	// ReadAllTemps copies. region carries ownership plus the boundary
	// sets exchanged with peer instances.
	owned      []int32
	ownedTemps [][2]int32
	region     regionState

	// anyDirty is set by every mutation that re-activates a machine
	// (fiddle ops, utilization updates, source changes, restores) and
	// cleared when a full batch consumes it. Together with allQuiet it
	// gates the all-quiescent fast path in stepN: when the whole room
	// is at a bitwise fixed point and nothing has been touched, inlet
	// mixes cannot change, so steps reduce to energy accrual without
	// waking any shard.
	anyDirty bool
	allQuiet bool

	// fiddleGen counts mutations that change the step map itself —
	// heat constants, air fractions, fan flows, power scales, forced
	// node temperatures, state restores — as opposed to ordinary input
	// changes (utilization, pins, source setpoints, machine power).
	// The surrogate (internal/surrogate) records it with every
	// trajectory sample so a fit can tell when its training data
	// stopped describing the current physics; see ModelGeneration.
	fiddleGen uint64

	// Scratch buffers for SteadyState's dense linear system, reused
	// under mu: SteadyState is the only writer and always holds s.mu
	// across fill and solve, so concurrent SteadyState calls (e.g. a
	// calibration sweep racing a /whatif kernel fallback) serialize on
	// the lock rather than corrupting each other's scratch.
	steadyA []float64
	steadyB []float64
	steadyX []float64
}

// Solver advances a compiled cluster model through emulated time.
type Solver struct {
	*solverCore
}

// New compiles a validated cluster into a Solver. The cluster is not
// retained; later model mutations do not affect the solver (use the
// fiddle methods instead).
func New(c *model.Cluster, cfg Config) (*Solver, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	core := &solverCore{
		cfg:      cfg,
		dt:       cfg.Step.Seconds(),
		byName:   make(map[string]int32, len(c.Machines)),
		srcIdx:   map[string]int{},
		anyDirty: true,
	}
	for i, src := range c.Sources {
		core.sources = append(core.sources, &sourceState{name: src.Name, supply: float64(src.SupplyTemp)})
		core.srcIdx[src.Name] = i
	}
	// Intern every machine's shape, size each room-wide array once, then
	// lay the machines' windows out in machine order.
	shapes := &shapeTable{shapes: map[string]*kernelShape{}}
	machineShape := make([]*kernelShape, len(c.Machines))
	var total bases
	maxNodes := 0
	for i, m := range c.Machines {
		sh, err := shapes.intern(m)
		if err != nil {
			return nil, err
		}
		machineShape[i] = sh
		total.advance(sh)
		maxNodes = max(maxNodes, len(sh.names))
		core.byName[m.Name] = int32(i)
	}
	core.room = newRoom(len(c.Machines), total)
	var at bases
	for i, m := range c.Machines {
		core.place(i, m, machineShape[i], at)
		at.advance(machineShape[i])
	}
	for _, e := range c.Edges {
		mi, ok := core.byName[e.To]
		if !ok {
			continue // edge into a sink
		}
		m := &core.ms[mi]
		if si, ok := core.srcIdx[e.From]; ok {
			m.roomIn = append(m.roomIn, roomEdge{kind: fromSource, ref: si, frac: float64(e.Fraction)})
		} else if ui, ok := core.byName[e.From]; ok {
			m.roomIn = append(m.roomIn, roomEdge{kind: fromMachine, ref: int(ui), frac: float64(e.Fraction)})
		}
	}
	// Effective inlet temperatures for step 0 queries.
	for mi := range core.ms {
		core.inlet[mi] = core.mixInlet(mi)
		temps := core.tempsOf(mi)
		for i := range temps {
			temps[i] = core.inlet[mi]
		}
		core.exhaust[mi] = temps[core.ms[mi].shape.exhaustIdx[0]]
	}
	if err := core.compileRegions(); err != nil {
		return nil, err
	}
	core.compileOwnedTemps()
	core.workers = resolveWorkers(cfg.Workers, len(core.owned))
	if core.region.count == 0 {
		core.shards = partitionShards(len(core.ms), core.workers, machineAdjacency(core.ms))
	} else {
		core.shards = core.partitionOwnedShards()
	}
	for i := range core.shards {
		core.shards[i].groupBySet(core.ms)
		core.shards[i].allocScratch(maxNodes)
	}
	core.deltas = make([]shardDelta, len(core.shards))
	s := &Solver{solverCore: core}
	if len(core.shards) > 1 {
		core.run = newStepRunner(core, len(core.shards))
		// The workers reference only the core, so they shut down when
		// the last *Solver* reference is dropped; no explicit Close is
		// required.
		runtime.SetFinalizer(s, func(s *Solver) { s.run.shutdown() })
	}
	return s, nil
}

// NewSingle compiles a standalone machine in model.SingleRoom. This is
// the convenient entry point for single-server emulation, Section 3's
// validation setup.
func NewSingle(m *model.Machine, cfg Config) (*Solver, error) {
	return New(model.SingleRoom(m), cfg)
}

// markDirty re-activates machine mi after a mutation and records the
// cluster-level dirt that disables stepN's all-quiescent fast path
// until the next full batch consumes it. Every mutator that changes a
// stepping input must come through here (or set anyDirty itself, as
// SetSourceTemperature does for source-only changes).
func (s *solverCore) markDirty(mi int) {
	s.dirty[mi] = true
	s.anyDirty = true
}

// mixInlet computes machine mi's effective inlet temperature from its
// pin (if fiddled), otherwise as the fraction-weighted average of its
// incoming room-level edges; machines contribute their previous-step
// exhaust mix (one-step transport delay, which also makes recirculating
// rooms well-defined).
func (s *solverCore) mixInlet(mi int) float64 {
	m := &s.ms[mi]
	if m.pinned {
		return m.pin
	}
	var wsum, tsum float64
	for _, e := range m.roomIn {
		var t float64
		switch e.kind {
		case fromSource:
			t = s.sources[e.ref].supply
		case fromMachine:
			t = s.exhaust[e.ref]
		}
		wsum += e.frac
		tsum += float64(e.frac * t)
	}
	if wsum == 0 {
		return s.inlet[mi] // isolated machine keeps its last inlet
	}
	return tsum / wsum
}

// Step advances the emulation by one configured time step.
func (s *Solver) Step() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stepN(1)
}

// StepN advances the emulation by n steps. The whole batch is
// published to the worker shards with a single release, so workers
// stay hot across every tick of the batch.
func (s *Solver) StepN(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stepN(n)
}

// Run advances the emulation until at least d of emulated time has
// elapsed from the current instant.
func (s *Solver) Run(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d <= 0 {
		return
	}
	// ceil(d / Step) ticks reaches the deadline; one batched release.
	n := int((d + s.cfg.Step - 1) / s.cfg.Step)
	s.stepN(n)
}

// Now returns the emulated time elapsed since the solver started.
func (s *Solver) Now() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Steps returns the number of iterations performed so far.
func (s *Solver) Steps() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.steps
}

// stepN advances the emulation by n steps with s.mu held. It is the
// single stepping entry point: serial rooms run the phases inline,
// sharded rooms publish the batch to the worker pool, and a fully
// quiescent room reduces to pure energy accrual without waking anyone.
func (s *solverCore) stepN(n int) {
	if n <= 0 {
		return
	}
	if s.allQuiet && !s.anyDirty {
		// Every machine is at a bitwise fixed point and no input —
		// fiddle, utilization, source supply, restore — has changed,
		// so inlet mixes recompute to identical bits and every step of
		// the batch is quiescent (quiet machines keep their exhausts,
		// so nothing can re-activate from inside). Only energy
		// accrues, as the same per-step per-component additions the
		// kernel would perform, keeping the counters bit-identical.
		for _, mi := range s.owned {
			for k := 0; k < n; k++ {
				s.stepQuiescent(int(mi), s.dt)
			}
		}
		s.lastDelta = 0
		s.now += time.Duration(n) * s.cfg.Step
		s.steps += uint64(n)
		return
	}
	if s.run == nil {
		for k := 0; k < n; k++ {
			for sh := range s.shards {
				s.runInletPhase(sh)
			}
			for sh := range s.shards {
				s.runStepPhase(sh)
			}
		}
	} else {
		s.batchSteps = n
		s.run.release()
		s.runShardBatch(0, &s.callerSense)
	}
	var d float64
	for i := range s.deltas {
		if s.deltas[i].v > d {
			d = s.deltas[i].v
		}
	}
	s.lastDelta = d
	// The batch consumed all dirt: every machine either stepped (and
	// cleared its flag) or was already clean and quiet. allQuiet notes
	// whether the final step left the whole room at its fixed point.
	s.anyDirty = false
	s.allQuiet = d == 0
	s.now += time.Duration(n) * s.cfg.Step
	s.steps += uint64(n)
}

// runShardBatch executes one participant's share of a published batch:
// batchSteps steps over its own shard, with a barrier after each phase
// so no exhaust is overwritten before every inlet that reads it is
// fixed, and no inlet of step k+1 is mixed before every exhaust of
// step k is published. The caller of stepN participates as shard 0;
// pool workers run the same loop for the remaining shards.
func (s *solverCore) runShardBatch(sh int, sense *int32) {
	n := s.batchSteps
	for k := 0; k < n; k++ {
		s.runInletPhase(sh)
		s.run.barrier.await(sense)
		s.runStepPhase(sh)
		s.run.barrier.await(sense)
	}
}

// runInletPhase is phase 1 over one shard: fix every owned machine's
// inlet from the previous step's exhaust mixes and the sources. Each
// machine writes only its own inletTemp and reads only exhaust
// temperatures frozen by the previous step, so shards are independent.
// A machine whose effective inlet moved (compared bitwise) is
// re-activated for the active set.
func (s *solverCore) runInletPhase(sh int) {
	for _, mi := range s.shards[sh].idx {
		in := s.mixInlet(int(mi))
		if math.Float64bits(in) != math.Float64bits(s.inlet[mi]) {
			s.inlet[mi] = in
			s.dirty[mi] = true
		}
	}
}

// runStepPhase is phase 2 over one shard: the per-machine heat and air
// traversals. Quiet machines with unchanged inputs are at a bitwise
// fixed point and only accrue energy; everything else runs the full
// kernel. Consecutive stepping machines of one coefficient set step
// four per call (stepQuad); quiet machines between them do not break a
// group. What a run of one set leaves short of four goes to the pair
// kernel, where a machine waits for the next such machine of its
// shape, and one left without a partner (at a shape boundary or the
// end of the shard) steps paired with itself. Each shard tracks its
// own maximum temperature delta; the reduction in stepN is
// order-independent, so steady-state detection is deterministic across
// worker counts. The kernels' scratch is the shard's own.
func (s *solverCore) runStepPhase(sh int) {
	var d float64
	shd := &s.shards[sh]
	var quad [4]int32 // stepping machines of set, waiting for a group
	var set *coefSet
	n := 0
	held := int32(-1) // a stepping machine waiting for a partner
	for _, mi := range shd.idx {
		if s.quiet[mi] && !s.dirty[mi] {
			s.stepQuiescent(int(mi), s.dt)
			continue
		}
		if ms := s.ms[mi].set; ms != set {
			for _, p := range quad[:n] {
				held, d = s.pairWith(shd, held, p, d)
			}
			set, n = ms, 0
		}
		quad[n] = mi
		if n++; n == len(quad) {
			d = s.stepGroup(shd, quad, d)
			n = 0
		}
	}
	for _, p := range quad[:n] {
		held, d = s.pairWith(shd, held, p, d)
	}
	if held >= 0 {
		d = s.stepLanes(shd, held, held, d)
	}
	s.deltas[sh].v = d
}

// pairWith steps machine mi through the pair kernel: with the held
// machine when they share a shape, else the held machine alone and mi
// held instead. It returns the machine left waiting for a partner (or
// -1) and d raised to the stepped deltas.
func (s *solverCore) pairWith(shd *shard, held, mi int32, d float64) (int32, float64) {
	switch {
	case held < 0:
		return mi, d
	case s.ms[held].shape == s.ms[mi].shape:
		return -1, s.stepLanes(shd, held, mi, d)
	}
	return mi, s.stepLanes(shd, held, held, d)
}

// stepGroup steps four machines of one set through stepQuad, records
// each one's quiescence, clears its dirt, and returns d raised to their
// deltas.
func (s *solverCore) stepGroup(shd *shard, q [4]int32, d float64) float64 {
	ds := s.stepQuad(s.ms[q[0]].set, q, s.dt, shd.snap, shd.cur, shd.netQ)
	for l, mi := range q {
		s.quiet[mi], s.dirty[mi] = ds[l] == 0, false
		if ds[l] > d {
			d = ds[l]
		}
	}
	return d
}

// stepLanes steps machines a and b through the kernel as one pair
// (a == b for a machine without a partner), records each one's
// quiescence, clears its dirt, and returns d raised to their deltas.
func (s *solverCore) stepLanes(shd *shard, a, b int32, d float64) float64 {
	da, db := s.stepPair(int(a), int(b), s.dt, shd.pairSnap, shd.pairNetQ)
	s.quiet[a], s.dirty[a] = da == 0, false
	s.quiet[b], s.dirty[b] = db == 0, false
	if da > d {
		d = da
	}
	if db > d {
		d = db
	}
	return d
}
