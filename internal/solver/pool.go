package solver

import (
	"runtime"
	"sync/atomic"
)

// This file holds the parallel stepping machinery: topology-aware
// shard partitioning, a sense-reversing barrier, and the persistent
// shard-owning workers that execute batched steps. docs/performance.md
// describes the design; the short version:
//
//   - The machine list is partitioned ONCE at compile time into at
//     most `workers` shards. Room-level recirculation components
//     (machines connected by machine->machine air edges) are kept
//     together so a worker's working set is a physically adjacent
//     slice of the room — air-flow edges rarely cross machines, and
//     the partition cuts along them.
//   - Each shard is owned persistently by exactly one participant:
//     the stepping goroutine owns shard 0, and one long-lived worker
//     goroutine owns each remaining shard. A machine's hot state is
//     only ever touched by its owner, so caches stay warm across
//     steps and there is no work-stealing churn.
//   - Within a step the two phases (inlet mixing, machine stepping)
//     are separated by a lightweight sense-reversing barrier — two
//     atomic operations per participant per phase — instead of the
//     historical channel dispatch + sync.WaitGroup per phase, which
//     cost a closure allocation and a futex wake per shard per phase.
//   - StepN/Run publish the whole batch of virtual-clock ticks with
//     one release: workers stay hot across every step of the batch,
//     and between back-to-back batches they spin briefly before
//     parking, so tick-per-call loops (solverd) keep them warm too.
//
// Everything here is allocation-free after construction.

// shard is a fixed subset of the machine list owned by one stepping
// participant. Every machine is in exactly one shard
// (TestShardPartition). New groups a shard's machines by shape, in
// shard order, into blocks of four lanes (layBlocks): the shard steps
// blocks[0]..blocks[1] of room.blocks, and idx lists its machines in
// block order. The kernel's scratch, netQ, and the second block's of a
// two-block AVX call, pairQ, are owned by the shard's participant so
// machines carry none of their own.
type shard struct {
	idx         []int32
	blocks      [2]int32
	netQ, pairQ [][4]float64
}

// rowPad is two [4]float64 rows: one 64-byte cache line.
const rowPad = 2

// allocScratch gives the shard the kernel's scratch for two blocks of
// machines of up to nodes nodes, in one buffer padded by a cache line
// at each end so no other shard's scratch shares a line with it.
func (sh *shard) allocScratch(nodes int) {
	buf := make([][4]float64, rowPad+2*nodes+rowPad)
	sh.netQ = buf[rowPad : rowPad+nodes : rowPad+nodes]
	sh.pairQ = buf[rowPad+nodes : rowPad+2*nodes : rowPad+2*nodes]
}

// layBlocks lays the room out in blocks: each shard's machines grouped
// by shape, in shard order, four to a block, then the machines no shard
// steps (other regions' placeholders) likewise in machine order. It
// rewrites each shard's idx in block order, sizes the block arrays —
// each shard's rows a cache line apart from the next shard's — and
// binds every block's coefficients. A machine's block depends only on
// its shape and its place in its shard, so it never changes.
func (s *solverCore) layBlocks() {
	var node, comp int32
	add := func(group []int32) {
		for lo := 0; lo < len(group); lo += 4 {
			lanes := min(4, len(group)-lo)
			sh := s.ms[group[lo]].shape
			b := block{shape: sh, node: node, comp: comp, lanes: int32(lanes)}
			for l := range b.ms {
				b.ms[l] = group[lo]
				if l < lanes {
					mi := group[lo+l]
					b.ms[l] = mi
					s.ms[mi].blk, s.ms[mi].lane = int32(len(s.blocks)), int32(l)
				}
			}
			s.blocks = append(s.blocks, b)
			node += int32(len(sh.names))
			comp += int32(len(sh.compNode))
		}
	}
	lay := func(idx []int32) {
		groupByShape(s.ms, idx)
		for lo := 0; lo < len(idx); {
			hi := lo + 1
			for hi < len(idx) && s.ms[idx[hi]].shape == s.ms[idx[lo]].shape {
				hi++
			}
			add(idx[lo:hi])
			lo = hi
		}
		node += rowPad
		comp += rowPad
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.blocks[0] = int32(len(s.blocks))
		lay(sh.idx)
		sh.blocks[1] = int32(len(s.blocks))
	}
	var remote []int32
	for mi := range s.ms {
		if s.ms[mi].remote {
			remote = append(remote, int32(mi))
		}
	}
	lay(remote)
	s.temps = make([][4]float64, node)
	s.draws = make([][4]float64, comp)
	if haveAVX {
		s.kerns = make([]blockKern, len(s.blocks))
	}
	for i := range s.blocks {
		s.bindBlock(int32(i))
	}
}

// groupByShape reorders idx so that machines of one shape are adjacent:
// shapes in order of first appearance, machines in their idx order
// within a shape.
func groupByShape(ms []machine, idx []int32) {
	var shapes []*kernelShape
	groups := map[*kernelShape][]int32{}
	for _, mi := range idx {
		sh := ms[mi].shape
		if _, ok := groups[sh]; !ok {
			shapes = append(shapes, sh)
		}
		groups[sh] = append(groups[sh], mi)
	}
	if len(shapes) < 2 {
		return
	}
	k := 0
	for _, sh := range shapes {
		k += copy(idx[k:], groups[sh])
	}
}

// shardBounds splits [0,n) into at most workers contiguous chunks of
// near-equal size. Bounds depend only on (n, workers), so a fixed
// worker count always yields the same sharding — and because each
// machine's step arithmetic is self-contained, results are bit-equal
// across any sharding at all.
func shardBounds(n, workers int) [][2]int {
	if n == 0 {
		return nil
	}
	shards := workers
	if shards > n {
		shards = n
	}
	size := (n + shards - 1) / shards
	var bounds [][2]int
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		bounds = append(bounds, [2]int{lo, hi})
	}
	return bounds
}

// machineAdjacency builds the undirected machine-level graph induced
// by room recirculation edges: u and v are adjacent when one machine's
// exhaust feeds the other's inlet. Sources and sinks contribute no
// edges — in a recirculation-free room every machine is its own
// component.
func machineAdjacency(machines []machine) [][]int32 {
	adj := make([][]int32, len(machines))
	for i := range machines {
		for _, e := range machines[i].roomIn {
			if e.kind == fromMachine && e.ref != i {
				adj[i] = append(adj[i], int32(e.ref))
				adj[e.ref] = append(adj[e.ref], int32(i))
			}
		}
	}
	return adj
}

// partitionShards splits n machines into at most `workers` shards of
// near-equal size, keeping recirculation components together whenever
// they fit: machines are grouped by connected component (components
// ordered by their smallest machine index, members ascending), and the
// grouped sequence is cut into contiguous chunks. A component is split
// only when it straddles a chunk cut, so at most workers-1 components
// are split and every cross-shard recirculation edge lies inside one
// of those — the declared shard boundaries.
//
// The partition depends only on the topology and the worker count, so
// a fixed configuration always shards identically; and because each
// machine's step arithmetic is self-contained, temperatures are
// bit-identical across any partition at all (the partition only
// decides which worker's cache a machine lives in).
func partitionShards(n, workers int, adj [][]int32) []shard {
	if n == 0 {
		return nil
	}
	// Group machines by connected component, deterministically:
	// components in order of their smallest member, members ascending.
	seq := make([]int32, 0, n)
	visited := make([]bool, n)
	stack := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		start := len(seq)
		visited[i] = true
		stack = append(stack[:0], int32(i))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			seq = append(seq, u)
			for _, v := range adj[u] {
				if !visited[v] {
					visited[v] = true
					stack = append(stack, v)
				}
			}
		}
		members := seq[start:]
		sortInt32(members)
	}
	bounds := shardBounds(n, workers)
	shards := make([]shard, len(bounds))
	for i, b := range bounds {
		shards[i] = shard{idx: seq[b[0]:b[1]]}
	}
	return shards
}

// sortInt32 is an allocation-free insertion sort; component member
// lists are touched once at compile time and are usually tiny.
func sortInt32(a []int32) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}

// autoShardMachines is the smallest per-worker shard for which fanning
// out beats the serial loop: below ~256 machines a shard's phase work
// (tens of microseconds) no longer dwarfs the barrier round-trip, and
// the flat-kernel measurements (docs/performance.md) show exactly that
// regime — workers=auto was the *worst* configuration at machines=1000
// (3.54M vs 5.55M machine-steps/s serial). Workers=0 therefore caps
// the worker count so every shard keeps at least this many machines,
// falling all the way back to the serial loop for small rooms; an
// explicit Workers=N is always taken literally.
const autoShardMachines = 256

// resolveWorkers maps the Config.Workers knob to a concrete count for
// an n-machine room: 0 selects one worker per available CPU but never
// fewer than autoShardMachines machines per shard (serial below the
// threshold); anything else is taken literally (1 = the serial loop).
func resolveWorkers(w, n int) int {
	if w != 0 {
		return w
	}
	p := runtime.GOMAXPROCS(0)
	if byWork := n / autoShardMachines; byWork < p {
		p = byWork
	}
	if p < 2 {
		return 1
	}
	return p
}

// senseBarrier is a sense-reversing barrier for a fixed set of
// participants. Each participant keeps a private sense bit that flips
// every phase; the last arriver resets the count and publishes the new
// sense, releasing everyone. One atomic add plus one atomic load per
// participant per phase on the fast path — no channels, no mutexes,
// no allocation — and the atomics give the race detector (and the Go
// memory model) the happens-before edges that make each phase's writes
// visible to the next phase's readers.
type senseBarrier struct {
	n     int32
	spin  int
	count atomic.Int32
	sense atomic.Int32
}

// await blocks until all n participants have arrived. sense points at
// the participant's private sense bit. Waiters spin for b.spin
// iterations before yielding; on a single-CPU system spinning can only
// delay the other participants, so the pool configures spin=0 there
// and waiters yield immediately.
func (b *senseBarrier) await(sense *int32) {
	s := *sense ^ 1
	*sense = s
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		b.sense.Store(s)
		return
	}
	for i := 0; b.sense.Load() != s; i++ {
		if i >= b.spin {
			runtime.Gosched()
		}
	}
}

// barrierSpin is the spin budget before a barrier waiter yields to the
// scheduler. Shard imbalance is bounded (near-equal machine counts),
// so waits are short and a few thousand pause-loads are cheaper than a
// futex sleep/wake round trip.
const barrierSpin = 4096

// wakeSpin is how long a worker stays hot after a batch, spinning on
// the epoch counter for the next release before parking on its
// channel. Tick-per-call loops (solverd calls Step once per virtual
// tick) re-release within microseconds, so the spin usually wins.
const wakeSpin = 4096

// workerState values for workerSlot.state.
const (
	workerRunning int32 = iota
	workerParked
)

// workerSlot is the park/wake handshake state for one worker, padded
// so neighbouring slots never share a cache line.
type workerSlot struct {
	state atomic.Int32
	park  chan struct{}
	_     [40]byte
}

// stepRunner drives the persistent shard-owning workers. The stepping
// goroutine (which owns shard 0) publishes a batch by bumping epoch;
// each worker executes the whole batch against its own shard,
// synchronizing phases on the shared barrier, then spins briefly for
// the next epoch before parking.
//
// The runner's goroutines reference the solverCore, NOT the public
// Solver wrapper: the wrapper's finalizer closes quit when the last
// outside reference is dropped, the workers return, and the core
// becomes collectable — no Close to forget (solver.go).
type stepRunner struct {
	barrier senseBarrier
	epoch   atomic.Uint64
	quit    chan struct{}
	slots   []workerSlot
	single  bool // GOMAXPROCS==1: park immediately, never spin
}

// newStepRunner starts participants-1 workers; the caller always owns
// shard 0, so total parallelism is exactly `participants`.
func newStepRunner(c *solverCore, participants int) *stepRunner {
	r := &stepRunner{
		quit:   make(chan struct{}),
		slots:  make([]workerSlot, participants-1),
		single: runtime.GOMAXPROCS(0) == 1,
	}
	r.barrier.n = int32(participants)
	if !r.single {
		r.barrier.spin = barrierSpin
	}
	for i := range r.slots {
		r.slots[i].park = make(chan struct{}, 1)
		go r.worker(c, i)
	}
	return r
}

// shutdown releases the workers. Installed as the Solver wrapper's
// finalizer; also safe to call directly (tests do).
func (r *stepRunner) shutdown() { close(r.quit) }

// release publishes a new batch (the step count was stored in
// c.batchSteps by the caller) and wakes any parked workers. The epoch
// bump happens before the park scan and each worker publishes its
// parked state before re-checking the epoch, so a worker either sees
// the new epoch itself or is woken by the token — never neither.
func (r *stepRunner) release() {
	r.epoch.Add(1)
	for i := range r.slots {
		w := &r.slots[i]
		if w.state.CompareAndSwap(workerParked, workerRunning) {
			w.park <- struct{}{}
		}
	}
}

// worker is the body of the goroutine owning shard i+1: run every
// released batch, stay hot for a moment, then park until woken.
func (r *stepRunner) worker(c *solverCore, i int) {
	w := &r.slots[i]
	shardIdx := i + 1
	var sense int32
	var last uint64
	for {
		if e := r.epoch.Load(); e != last {
			last = e
			c.runShardBatch(shardIdx, &sense)
			continue
		}
		if !r.single {
			hot := false
			for s := 0; s < wakeSpin; s++ {
				if r.epoch.Load() != last {
					hot = true
					break
				}
			}
			if hot {
				continue
			}
		}
		w.state.Store(workerParked)
		if r.epoch.Load() != last {
			// Raced with release: whoever wins the CAS decides whether
			// the token is sent; consume it if release won.
			if w.state.CompareAndSwap(workerParked, workerRunning) {
				continue
			}
			<-w.park
			continue
		}
		select {
		case <-w.park:
		case <-r.quit:
			return
		}
	}
}
