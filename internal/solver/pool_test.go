package solver

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

// buildIrregularCluster constructs the irregular multi-room topology
// the ISSUE's determinism matrix calls for: three racks of *different*
// heights (5, 3, 2) with intra-rack recirculation chains, plus three
// standalone machines fed straight from the AC — 13 machines whose
// recirculation components have sizes 5, 3, 2, 1, 1, 1, so any
// partition at workers ∈ {2, 4} must both split and straddle
// components.
func buildIrregularCluster(t testing.TB) *model.Cluster {
	t.Helper()
	c := &model.Cluster{
		Name:    "irregular",
		Sources: []model.ClusterSource{{Name: model.NodeAC, SupplyTemp: model.Table1.InletTemp}},
		Sinks:   []model.ClusterSink{{Name: model.NodeClusterExhaust}},
	}
	addRack := func(rack, height int) {
		for h := 1; h <= height; h++ {
			name := fmt.Sprintf("r%dm%d", rack, h)
			c.Machines = append(c.Machines, model.DefaultServer(name))
			// Same edge discipline as model.RackCluster: the share of
			// the exhaust feeding the machine above doubles as that
			// machine's recirculated intake share.
			share := units.Fraction(0.1 * float64(h))
			if h == 1 {
				c.Edges = append(c.Edges, model.ClusterEdge{From: model.NodeAC, To: name, Fraction: 1})
			} else {
				below := fmt.Sprintf("r%dm%d", rack, h-1)
				prev := units.Fraction(0.1 * float64(h-1))
				c.Edges = append(c.Edges,
					model.ClusterEdge{From: model.NodeAC, To: name, Fraction: 1 - prev},
					model.ClusterEdge{From: below, To: name, Fraction: prev},
				)
			}
			up := units.Fraction(0)
			if h < height {
				up = share
			}
			c.Edges = append(c.Edges, model.ClusterEdge{From: name, To: model.NodeClusterExhaust, Fraction: 1 - up})
		}
	}
	addRack(1, 5)
	addRack(2, 3)
	addRack(3, 2)
	for i := 1; i <= 3; i++ {
		name := fmt.Sprintf("solo%d", i)
		c.Machines = append(c.Machines, model.DefaultServer(name))
		c.Edges = append(c.Edges,
			model.ClusterEdge{From: model.NodeAC, To: name, Fraction: 1},
			model.ClusterEdge{From: name, To: model.NodeClusterExhaust, Fraction: 1},
		)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// irregularLoad gives the irregular room asymmetric work so a wrong
// phase ordering would actually change temperatures.
func irregularLoad(c *model.Cluster) []diffOp {
	var ops []diffOp
	for i, m := range c.Machines {
		ops = append(ops, diffOp{kind: opUtil, machine: m.Name, entries: cpuUtil(float64(i%7) / 7)})
	}
	return append(ops,
		diffOp{kind: opPower, machine: "r2m2", on: false},
		diffOp{kind: opPin, machine: "solo2", v: 29.5},
		diffOp{kind: opHeatK, machine: "r1m5", a: model.NodeCPU, b: model.NodeCPUAir, v: 2.4})
}

// TestShardPartition checks the compile-time partition invariants on
// the irregular topology across worker counts:
//
//  1. every machine lands in exactly one shard,
//  2. shard sizes are near-equal (the shardBounds chunking),
//  3. recirculation components are kept together except where a
//     component straddles a chunk cut — so at most shards-1 components
//     are split, and every cross-shard edge lies inside one of those
//     declared boundary components.
func TestShardPartition(t *testing.T) {
	c := buildIrregularCluster(t)
	for _, workers := range []int{1, 2, 3, 4, 5, 8, 13, 20} {
		s, err := New(c, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		n := len(s.ms)
		adj := machineAdjacency(s.ms)

		// Invariant 1: exact cover.
		seen := make([]int, n)
		for si, sh := range s.shards {
			for _, mi := range sh.idx {
				if mi < 0 || int(mi) >= n {
					t.Fatalf("workers=%d: shard %d contains out-of-range machine %d", workers, si, mi)
				}
				seen[mi]++
			}
		}
		for mi, cnt := range seen {
			if cnt != 1 {
				t.Errorf("workers=%d: machine %d appears in %d shards, want exactly 1", workers, mi, cnt)
			}
		}

		// Invariant 2: near-equal chunking, never more shards than
		// requested (or than machines).
		if len(s.shards) > workers || len(s.shards) > n {
			t.Errorf("workers=%d: %d shards", workers, len(s.shards))
		}
		ceil := (n + len(s.shards) - 1) / len(s.shards)
		for si, sh := range s.shards {
			if len(sh.idx) == 0 || len(sh.idx) > ceil {
				t.Errorf("workers=%d: shard %d has %d machines, want 1..%d", workers, si, len(sh.idx), ceil)
			}
		}

		// Invariant 3: cross-shard edges only inside split components.
		shardOf := make([]int, n)
		for si, sh := range s.shards {
			for _, mi := range sh.idx {
				shardOf[mi] = si
			}
		}
		comp := make([]int, n)
		for i := range comp {
			comp[i] = -1
		}
		nc := 0
		for i := 0; i < n; i++ {
			if comp[i] >= 0 {
				continue
			}
			stack := []int32{int32(i)}
			comp[i] = nc
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, v := range adj[u] {
					if comp[v] < 0 {
						comp[v] = nc
						stack = append(stack, v)
					}
				}
			}
			nc++
		}
		split := map[int]bool{}
		for cc := 0; cc < nc; cc++ {
			first := -1
			for mi := 0; mi < n; mi++ {
				if comp[mi] != cc {
					continue
				}
				if first < 0 {
					first = shardOf[mi]
				} else if shardOf[mi] != first {
					split[cc] = true
				}
			}
		}
		if len(split) > len(s.shards)-1 {
			t.Errorf("workers=%d: %d split components for %d shards (want <= %d)",
				workers, len(split), len(s.shards), len(s.shards)-1)
		}
		for u := 0; u < n; u++ {
			for _, v := range adj[u] {
				if shardOf[u] != shardOf[v] && !split[comp[u]] {
					t.Errorf("workers=%d: cross-shard edge %d-%d inside unsplit component %d",
						workers, u, v, comp[u])
				}
			}
		}
	}
}

// TestSenseBarrierStress hammers the sense-reversing barrier directly:
// every participant writes its own slot each phase, crosses the
// barrier, then asserts it can read every other participant's write
// for that phase. Run under -race this proves the barrier's atomics
// publish the happens-before edges the step phases rely on; without
// -race the value checks catch lost phases or premature releases.
func TestSenseBarrierStress(t *testing.T) {
	const participants, phases = 7, 5000
	b := &senseBarrier{n: participants, spin: 64}
	vals := make([]struct {
		v int
		_ [56]byte
	}, participants)
	var wg sync.WaitGroup
	errc := make(chan error, participants)
	for p := 0; p < participants; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var sense int32
			for ph := 1; ph <= phases; ph++ {
				vals[p].v = ph
				b.await(&sense)
				for q := 0; q < participants; q++ {
					if vals[q].v != ph {
						errc <- fmt.Errorf("phase %d: participant %d saw stale value %d from %d",
							ph, p, vals[q].v, q)
						return
					}
				}
				b.await(&sense)
			}
		}(p)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestIrregularTopologyDeterminism is the determinism matrix:
// workers ∈ {1, 2, 4, auto} on the irregular multi-room topology,
// stepped through fiddle perturbations, must stay bit-identical to
// exhaustive serial stepping (the frozen reference) — including a
// mid-run source setpoint change, which exercises re-activation through
// the room-level mix rather than through any single machine's dirty
// flag.
func TestIrregularTopologyDeterminism(t *testing.T) {
	c := buildIrregularCluster(t)
	for _, workers := range []int{1, 2, 4, 0} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			d := newDiffRun(t, c, Config{Workers: workers}, 1, irregularLoad(c)...)
			d.apply(diffOp{kind: opStepN, n: 400})
			d.apply(diffOp{kind: opSource, a: model.NodeAC, v: 24.5})
			d.apply(diffOp{kind: opPower, machine: "r2m2", on: true})
			d.apply(diffOp{kind: opStepN, n: 400})
		})
	}
}

// TestTickBatching proves batched and unbatched stepping are
// bit-identical: StepN(n) and Run(n*step) publish the whole batch to
// the workers in one release, while n calls to Step pay one release
// each — all three must produce the same bits, with the pool both off
// and on.
func TestTickBatching(t *testing.T) {
	const steps = 300
	c := buildIrregularCluster(t)
	build := func(cfg Config) *Solver {
		return newDiffRun(t, c, cfg, 1, irregularLoad(c)...).solver()
	}
	for _, cfg := range []Config{
		{Workers: 1},
		{Workers: 4},
	} {
		label := fmt.Sprintf("workers=%d", cfg.Workers)
		single := build(cfg)
		for i := 0; i < steps; i++ {
			single.Step()
		}
		batched := build(cfg)
		batched.StepN(steps)
		assertBitIdentical(t, label+" StepN vs Step loop", batched, single)
		if batched.SaveState().Steps != single.SaveState().Steps || batched.Now() != single.Now() {
			t.Errorf("%s: batched steps=%d now=%v, single steps=%d now=%v",
				label, batched.SaveState().Steps, batched.Now(), single.SaveState().Steps, single.Now())
		}
		ran := build(cfg)
		ran.Run(steps * time.Second)
		assertBitIdentical(t, label+" Run vs Step loop", ran, single)
		if ran.SaveState().Steps != single.SaveState().Steps {
			t.Errorf("%s: Run performed %d steps, want %d", label, ran.SaveState().Steps, single.SaveState().Steps)
		}
	}
}

// TestActiveSetSourceChange guards the all-quiescent fast path against
// its one subtle hazard: SetSourceTemperature changes no machine, only
// the room mix, so quiescent stepping would keep skipping the inlet
// sweep forever if the setter did not record the change. The room is
// driven to its exact fixed point (so the fast path is active), the AC
// setpoint moves, and the trajectory must track exhaustive stepping
// (the frozen reference) bit-for-bit through the new transient.
func TestActiveSetSourceChange(t *testing.T) {
	d := busyRun(t, 4, Config{})
	d.apply(diffOp{kind: opQuiesce})
	// A few fully-quiescent batches first, so the fast path has
	// genuinely engaged before the setpoint moves.
	d.apply(diffOp{kind: opStepN, n: 100})
	d.apply(diffOp{kind: opSource, a: model.NodeAC, v: 26})
	d.apply(diffOp{kind: opStep})
	if d.solver().LastStepDelta() == 0 {
		t.Error("AC setpoint change did not wake the quiescent room")
	}
	d.apply(diffOp{kind: opStepN, n: 500})
}

// TestShardsGroupShapes pins what lets a room whose shapes never sit
// side by side pair at all: within every shard, the machines of each
// shape are adjacent, so the step phase finds a same-shape partner for
// all but at most one machine of each shape.
func TestShardsGroupShapes(t *testing.T) {
	c := mixedShapeCluster(t)
	for _, workers := range []int{1, 2, 3} {
		s, err := New(c, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for si, sh := range s.shards {
			runs, shapes := 0, map[*kernelShape]bool{}
			for k, mi := range sh.idx {
				if k == 0 || s.ms[sh.idx[k-1]].shape != s.ms[mi].shape {
					runs++
				}
				shapes[s.ms[mi].shape] = true
			}
			if runs != len(shapes) {
				t.Errorf("workers=%d: shard %d has %d runs of %d shapes: %v", workers, si, runs, len(shapes), sh.idx)
			}
		}
	}
}
