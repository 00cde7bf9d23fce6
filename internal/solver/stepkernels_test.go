package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/model"
)

// The AVX kernel (stepOne, stepTwo; kernel_amd64.go) and the portable
// stepBlock are one function. checkStepKernels builds one random room
// three times and steps it tick by tick:
//
//   - portable: every block through stepBlock;
//   - avx: every block through the AVX kernel, consecutive blocks of one
//     shape paired or not at random, so pairs, lone blocks and shape
//     changes mix;
//   - production: Solver.Step, which skips quiet blocks and pairs busy
//     ones (runStepPhase).
//
// After every tick each block's four lane deltas must be the same bits
// in portable and avx, and every temperature row (idle lanes too),
// draw, energy, inlet and exhaust the same bits in all three, with
// production's LastStepDelta the largest owned lane delta. Rooms mix
// RackCluster, DefaultCluster and mixedRoom shapes, partial blocks and
// one or two shards; random fiddles give random valid constants, and a
// few zero a machine's air fractions and conductances, so wSum and
// fkSum reach 0, or power it off, or pin its inlet.

func TestStepKernels(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { checkStepKernels(t, seed) })
	}
}

func FuzzStepKernels(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(checkStepKernels)
}

func checkStepKernels(t *testing.T, seed int64) {
	if !haveAVX {
		t.Skip("no AVX (CPUID and XGETBV say the CPU or OS lacks it): every block steps through stepBlock, so there is no second kernel to compare")
	}
	rng := rand.New(rand.NewSource(seed))
	c := randomKernelRoom(t, rng)
	cfg := Config{Workers: 1 + rng.Intn(2), Step: []time.Duration{time.Second, 250 * time.Millisecond, 3 * time.Second}[rng.Intn(3)]}
	var sides [3]*Solver // portable, avx, production
	for i := range sides {
		s, err := New(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sides[i] = s
	}
	pos := map[string]int{}
	for k, name := range sides[0].Machines() {
		pos[name] = k
	}
	pairing := rand.New(rand.NewSource(rng.Int63()))
	ticks := 0
	tick := func() {
		t.Helper()
		ticks++
		dp := kernelTick(sides[0], nil)
		da := kernelTick(sides[1], pairing)
		sides[2].Step()
		for bi := range dp {
			for l := range dp[bi] {
				if math.Float64bits(dp[bi][l]) != math.Float64bits(da[bi][l]) {
					t.Fatalf("tick %d: block %d lane %d: delta %v, avx %v", ticks, bi, l, dp[bi][l], da[bi][l])
				}
			}
		}
		want := 0.0
		for bi, b := range sides[0].blocks {
			for l := range b.ms[:b.lanes] {
				want = max(want, dp[bi][l])
			}
		}
		if got := float64(sides[2].LastStepDelta()); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("tick %d: LastStepDelta %v, largest lane delta %v", ticks, got, want)
		}
		for i, name := range []string{"avx", "production"} {
			if diff := sameRoom(&sides[0].room, &sides[i+1].room); diff != "" {
				t.Fatalf("tick %d: %s: %s", ticks, name, diff)
			}
		}
	}
	fiddle := func() {
		t.Helper()
		for _, op := range randomKernelOps(rng, c) {
			for _, s := range sides {
				if err := applyPhysicsOp(s, pos, op); err != nil {
					t.Fatalf("%v: %v", op, err)
				}
			}
		}
	}
	for i := 0; i < 150; i++ {
		if rng.Intn(2) == 0 {
			fiddle()
		}
		tick()
	}
	// Long enough for machines to reach their exact fixed point, so
	// production skips quiet blocks and pairs what is left.
	for i := 0; i < 2000; i++ {
		tick()
	}
	for i := 0; i < 100; i++ {
		if rng.Intn(4) == 0 {
			fiddle()
		}
		tick()
	}
}

// randomKernelRoom is a RackCluster, DefaultCluster or mixedRoom room of
// a random size, most of them leaving a block short of four lanes.
func randomKernelRoom(t *testing.T, rng *rand.Rand) *model.Cluster {
	t.Helper()
	var c *model.Cluster
	var err error
	switch rng.Intn(3) {
	case 0:
		c, err = model.RackCluster("room", 1+rng.Intn(3), 1+rng.Intn(9), nil)
	case 1:
		c, err = model.DefaultCluster("room", 1+rng.Intn(23))
	default:
		c, err = mixedRoom(1 + rng.Intn(23))
	}
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// randomKernelOps draws one random input change (genDiffOp's, steps
// excluded) or, one time in four, a series that takes a random machine
// to an edge of the kernel: no air fractions, so no region downstream
// of the inlet has flow (wSum 0), and no conductances either (fkSum 0
// too), powered off, or its inlet pinned.
func randomKernelOps(rng *rand.Rand, c *model.Cluster) []diffOp {
	if rng.Intn(4) > 0 {
		for {
			switch op := genDiffOp(rng, c, true); op.kind {
			case opStep, opStepN, opSettle:
			default:
				return []diffOp{op}
			}
		}
	}
	m := c.Machines[rng.Intn(len(c.Machines))]
	var ops []diffOp
	switch k := rng.Intn(4); k {
	case 0, 1:
		for _, e := range m.AirEdges {
			ops = append(ops, diffOp{kind: opAirFrac, machine: m.Name, a: e.From, b: e.To})
		}
		for _, e := range m.HeatEdges[:k*len(m.HeatEdges)] {
			ops = append(ops, diffOp{kind: opHeatK, machine: m.Name, a: e.A, b: e.B})
		}
	case 2:
		ops = append(ops, diffOp{kind: opPower, machine: m.Name})
	default:
		ops = append(ops, diffOp{kind: opPin, machine: m.Name, v: 10 + 30*rng.Float64()})
	}
	return ops
}

// kernelTick steps every block of s once: the inlet phase, then each
// block's stale draws and the block, through stepBlock when pairing is
// nil and through the AVX kernel otherwise, a block paired with the
// next one of its shape in its shard when pairing draws true. It
// returns every block's lane deltas and leaves the active set alone.
func kernelTick(s *Solver, pairing *rand.Rand) [][4]float64 {
	ds := make([][4]float64, len(s.blocks))
	for sh := range s.shards {
		s.runInletPhase(sh)
	}
	for sh := range s.shards {
		shd := &s.shards[sh]
		for bi := shd.blocks[0]; bi < shd.blocks[1]; bi++ {
			for _, mi := range s.blocks[bi].ms[:s.blocks[bi].lanes] {
				if s.stale[mi] {
					s.refreshDraws(int(mi))
				}
			}
		}
		for bi := shd.blocks[0]; bi < shd.blocks[1]; bi++ {
			b := &s.blocks[bi]
			switch {
			case pairing == nil:
				ds[bi] = s.stepBlock(b, s.dt, shd.netQ)
			case bi+1 < shd.blocks[1] && s.blocks[bi+1].shape == b.shape && pairing.Intn(3) > 0:
				ds[bi], ds[bi+1] = s.stepTwo(bi, bi+1, shd)
				bi++
			default:
				ds[bi] = s.stepOne(bi, shd)
			}
		}
	}
	return ds
}

// sameRoom compares two rooms built alike: every temperature and draw
// row, lane by lane, and every machine's energy, inlet and exhaust, bit
// for bit. It returns the first difference, or "".
func sameRoom(a, b *room) string {
	cmpRows := func(name string, x, y [][4]float64) string {
		for i := range x {
			for l := range x[i] {
				if math.Float64bits(x[i][l]) != math.Float64bits(y[i][l]) {
					return fmt.Sprintf("%s row %d lane %d: %v, want %v", name, i, l, y[i][l], x[i][l])
				}
			}
		}
		return ""
	}
	vals := func(name string, x, y []float64) string {
		for mi := range x {
			if math.Float64bits(x[mi]) != math.Float64bits(y[mi]) {
				return fmt.Sprintf("%s of %s: %v, want %v", name, a.ms[mi].name, y[mi], x[mi])
			}
		}
		return ""
	}
	for _, diff := range []string{
		cmpRows("temperature", a.temps, b.temps),
		cmpRows("draw", a.draws, b.draws),
		vals("energy", a.energy, b.energy),
		vals("inlet", a.inlet, b.inlet),
		vals("exhaust", a.exhaust, b.exhaust),
	} {
		if diff != "" {
			return diff
		}
	}
	return ""
}
