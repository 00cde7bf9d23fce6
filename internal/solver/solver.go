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
	"slices"
	"strings"
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
	dt      float64            // cfg.Step in seconds, fixed at New
	byName  map[string]nameRef // machine name -> global machine index and what a write needs
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
	// when unpartitioned), ascending. region carries ownership plus the
	// boundary sets exchanged with peer instances.
	owned  []int32
	probes int // the owned machines' node count: Probes' length
	region regionState

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

// nameRef is byName's value: a machine's index and what a by-name
// utilization write needs of it, so the write reads no machine record.
type nameRef struct {
	shape  *kernelShape
	mi     int32
	util   int32 // base of its utilization window
	remote bool  // owned by another region (region.go)
}

// Solver advances a compiled cluster model through emulated time.
type Solver struct {
	*solverCore
}

// New compiles a validated cluster into a Solver. The cluster is not
// retained; later model mutations do not affect the solver (use the
// fiddle methods instead).
func New(c *model.Cluster, cfg Config) (*Solver, error) {
	// repeat[i] starts as the validator's verdict that machine i's body
	// equals machine i-1's and keeps it only if the fan flow does too.
	repeat := make([]bool, len(c.Machines))
	if err := c.ValidateRuns(repeat); err != nil {
		return nil, err
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	core := &solverCore{
		cfg:      cfg,
		dt:       cfg.Step.Seconds(),
		byName:   make(map[string]nameRef, len(c.Machines)),
		srcIdx:   map[string]int{},
		anyDirty: true,
	}
	for i, src := range c.Sources {
		core.sources = append(core.sources, &sourceState{name: src.Name, supply: float64(src.SupplyTemp)})
		core.srcIdx[src.Name] = i
	}
	// Every machine name is copied into one string, which byName's keys,
	// the machines' names and Machines() all take substrings of, so the
	// bytes a by-name lookup hashes lie together rather than over the
	// model's heap.
	size := 0
	for _, m := range c.Machines {
		size += len(m.Name)
	}
	var arena strings.Builder
	arena.Grow(size)
	for _, m := range c.Machines {
		arena.WriteString(m.Name)
	}
	names := arena.String()
	// Intern every machine's shape, size each machine-major array once,
	// then lay the machines' windows out in machine order. A machine
	// whose body equals the one before it has that machine's shape; with
	// an equal fan flow too, it has that machine's set (repeat).
	shapes := &shapeTable{shapes: map[string]*kernelShape{}}
	machineShape := make([]*kernelShape, len(c.Machines))
	var total bases
	maxNodes := 0
	for i, m := range c.Machines {
		var sh *kernelShape
		if repeat[i] {
			sh = machineShape[i-1]
			repeat[i] = math.Float64bits(float64(m.FanFlow)) == math.Float64bits(float64(c.Machines[i-1].FanFlow))
		} else if sh, err = shapes.intern(m); err != nil {
			return nil, err
		}
		machineShape[i] = sh
		total.advance(sh)
		maxNodes = max(maxNodes, len(sh.names))
	}
	core.room = newRoom(len(c.Machines), total)
	var at bases
	for i, m := range c.Machines {
		name := names[:len(m.Name)]
		names = names[len(m.Name):]
		core.byName[name] = nameRef{shape: machineShape[i], mi: int32(i), util: at.util}
		core.place(i, m, machineShape[i], at, repeat[i], name)
		at.advance(machineShape[i])
	}
	for _, e := range c.Edges {
		to, ok := core.byName[e.To]
		if !ok {
			continue // edge into a sink
		}
		m := &core.ms[to.mi]
		if si, ok := core.srcIdx[e.From]; ok {
			m.roomIn = append(m.roomIn, roomEdge{kind: fromSource, ref: si, frac: float64(e.Fraction)})
		} else if from, ok := core.byName[e.From]; ok {
			m.roomIn = append(m.roomIn, roomEdge{kind: fromMachine, ref: int(from.mi), frac: float64(e.Fraction)})
		}
	}
	if err := core.compileRegions(); err != nil {
		return nil, err
	}
	core.workers = resolveWorkers(cfg.Workers, len(core.owned))
	if core.region.count == 0 {
		core.shards = partitionShards(len(core.ms), core.workers, machineAdjacency(core.ms))
	} else {
		core.shards = core.partitionOwnedShards()
	}
	core.layBlocks()
	for i := range core.shards {
		core.shards[i].allocScratch(maxNodes)
	}
	for _, mi := range core.owned {
		m := &core.ms[mi]
		core.blocks[m.blk].probe[m.lane] = int32(core.probes)
		core.probes += len(m.shape.names)
	}
	// Effective inlet temperatures for step 0 queries, each machine
	// after the machines it draws air from.
	for _, mi := range inletOrder(core.ms) {
		core.inlet[mi] = core.mixInlet(mi)
		rows, l := core.tempsOf(mi)
		for i := range rows {
			rows[i][l] = core.inlet[mi]
		}
		core.exhaust[mi] = core.inlet[mi]
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

// markStale leaves machine mi's draws to the step, which refreshes them
// before it steps the machine, and re-activates the machine.
func (s *solverCore) markStale(mi int) {
	s.stale[mi] = true
	s.markDirty(mi)
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

// inletOrder returns the machine indices in an order in which every
// machine follows the machines its inlet mixes from, so that step 0's
// inlets read their upstream machines' starting exhausts whatever order
// the cluster lists the machines in. Machines go in list order as they
// become ready. When only machines on or below a cycle are left, one
// cycle's first machine in list order goes next, so machines on a cycle
// keep list order. A cluster listed upstream-first keeps its bits.
func inletOrder(ms []machine) []int {
	n := len(ms)
	// pending counts each machine's upstream machines not yet placed;
	// down[start[i]:start[i+1]] are machine i's downstream machines.
	pending := make([]int32, n)
	start := make([]int32, n+1)
	for i := range ms {
		for _, e := range ms[i].roomIn {
			if e.kind == fromMachine {
				pending[i]++
				start[e.ref+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	down := make([]int32, start[n])
	next := append([]int32(nil), start[:n]...)
	for i := range ms {
		for _, e := range ms[i].roomIn {
			if e.kind == fromMachine {
				down[next[e.ref]] = int32(i)
				next[e.ref]++
			}
		}
	}
	// order is also the queue: order[head:] are placed machines whose
	// downstream machines are not yet released. A placed machine's
	// pending is -1.
	order := make([]int, 0, n)
	for i := range pending {
		if pending[i] == 0 {
			pending[i] = -1
			order = append(order, i)
		}
	}
	var at []int32 // a machine's step in the walk below, or -1
	var walk []int
	for head, first := 0, 0; len(order) < n; head++ {
		if head == len(order) {
			// Every machine left has an upstream machine left: walk
			// upstream from the first of them until the walk closes a
			// cycle, and place that cycle's first machine.
			if at == nil {
				at = make([]int32, n)
				for i := range at {
					at[i] = -1
				}
			}
			for pending[first] < 0 {
				first++
			}
			walk = walk[:0]
			for m := first; ; {
				if at[m] >= 0 {
					m = slices.Min(walk[at[m]:])
					pending[m] = -1
					order = append(order, m)
					break
				}
				at[m] = int32(len(walk))
				walk = append(walk, m)
				for _, e := range ms[m].roomIn {
					if e.kind == fromMachine && pending[e.ref] >= 0 {
						m = e.ref
						break
					}
				}
			}
			for _, m := range walk {
				at[m] = -1
			}
		}
		for _, d := range down[start[order[head]]:start[order[head]+1]] {
			if pending[d] > 0 {
				if pending[d]--; pending[d] == 0 {
					pending[d] = -1
					order = append(order, int(d))
				}
			}
		}
	}
	return order
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
// traversals, a block of four lanes per kernel call. A block steps when
// any of its machines is dirty or was not quiet, after refreshing its
// stale draws; otherwise each of its machines is at a bitwise fixed
// point and only accrues energy. A quiet, clean machine in a block that
// steps is stepped with it and ends with the bits stepQuiescent would
// leave it: its last step changed no node's value, and the kernel never
// divides by a temperature, so stepping it again gives every node the
// same value, and a nonzero value the same bits. Every value the kernel
// writes is a sum that starts at +0, such a sum divided by a positive
// coefficient, an inlet that is unchanged while the machine is clean, a
// stagnant region's old value, or a component's old value plus a term
// that is +0 when it is zero, so a zero it writes does not depend on
// the signs of the zeros it read: the last step already wrote each zero
// as this one writes it. Its energy accrues by the additions
// stepQuiescent makes. With AVX (kernel_amd64.go) a busy block waits
// for the next busy block of its shape and the two step in one call;
// a block whose next busy block has another shape, or that has none,
// steps alone. Blocks share nothing within the phase, so the order in
// which they step does not matter. Each shard tracks its own maximum
// temperature delta; the reduction in stepN is order-independent, so
// steady-state detection is deterministic across worker counts. The
// kernel's scratch is the shard's own.
func (s *solverCore) runStepPhase(sh int) {
	var d float64
	shd := &s.shards[sh]
	held := int32(-1) // with AVX: the busy block waiting for a partner
	for bi := shd.blocks[0]; bi < shd.blocks[1]; bi++ {
		b := &s.blocks[bi]
		ms := b.ms[:b.lanes]
		busy := false
		for _, mi := range ms {
			if s.stale[mi] { // and so dirty
				s.refreshDraws(int(mi))
			}
			busy = busy || !s.quiet[mi] || s.dirty[mi]
		}
		switch {
		case !busy:
			for _, mi := range ms {
				s.stepQuiescent(int(mi), s.dt)
			}
		case !haveAVX:
			d = s.settle(b, s.stepBlock(b, s.dt, shd.netQ), d)
		case held < 0:
			held = bi
		case s.blocks[held].shape != b.shape:
			d = s.settle(&s.blocks[held], s.stepOne(held, shd), d)
			held = bi
		default:
			da, db := s.stepTwo(held, bi, shd)
			d = s.settle(b, db, s.settle(&s.blocks[held], da, d))
			held = -1
		}
	}
	if held >= 0 {
		d = s.settle(&s.blocks[held], s.stepOne(held, shd), d)
	}
	s.deltas[sh].v = d
}

// settle records that block b stepped with lane l's largest change
// ds[l], and returns the largest of d and the ds of b's machines.
func (s *solverCore) settle(b *block, ds [4]float64, d float64) float64 {
	for l, mi := range b.ms[:b.lanes] {
		s.quiet[mi], s.dirty[mi] = ds[l] == 0, false
		if ds[l] > d {
			d = ds[l]
		}
	}
	return d
}
