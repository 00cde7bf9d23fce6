package solver

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

// genRejoinOp draws a fiddle that puts one constant of a random
// machine back to its model value — the op that moves a machine back
// into the room's shared coefficient set.
func genRejoinOp(rng *rand.Rand, c *model.Cluster) diffOp {
	m := c.Machines[rng.Intn(len(c.Machines))]
	op := diffOp{machine: m.Name}
	switch rng.Intn(3) {
	case 0:
		op.kind, op.v = opFan, float64(m.FanFlow)
	case 1:
		e := m.HeatEdges[rng.Intn(len(m.HeatEdges))]
		op.kind, op.a, op.b, op.v = opHeatK, e.A, e.B, float64(e.K)
	default:
		e := m.AirEdges[rng.Intn(len(m.AirEdges))]
		op.kind, op.a, op.b, op.v = opAirFrac, e.From, e.To, float64(e.Fraction)
	}
	return op
}

// TestQuadDifferential holds the grouped kernel to the frozen reference
// on what decides its groups: runs of 1 to 9 stepping machines of one
// set (one rack of n machines), one shape split across several sets,
// machines leaving their set and rejoining it (fan flow A→B→A, and
// random fiddles raced with random restores of model values), gaps left
// by the active set, 1, 2 and 4 workers, and two regions.
func TestQuadDifferential(t *testing.T) {
	configs := []struct {
		cfg     Config
		regions int
	}{
		{Config{Workers: 1}, 1},
		{Config{Workers: 2}, 1},
		{Config{Workers: 4}, 1},
		{Config{Workers: 1}, 2},
		{Config{Workers: 2}, 2},
		{Config{Workers: 4}, 2},
	}
	for n := 1; n <= 9; n++ {
		for _, cc := range configs {
			if cc.regions > n {
				continue
			}
			name := fmt.Sprintf("machines=%d/workers=%d/regions=%d", n, cc.cfg.Workers, cc.regions)
			t.Run(name, func(t *testing.T) {
				c, err := model.RackCluster("room", 1, n, nil)
				if err != nil {
					t.Fatal(err)
				}
				var load []diffOp
				for i, m := range c.Machines {
					load = append(load, diffOp{kind: opUtil, machine: m.Name,
						entries: []model.UtilSample{{Source: model.UtilCPU, Util: units.Fraction(i%5) / 4}}})
				}
				d := newDiffRun(t, c, cc.cfg, cc.regions, load...)
				step := func(k int) { d.apply(diffOp{kind: opStepN, n: k}) }
				step(3)
				// Split the shape: every third machine to a second fan
				// flow, so runs of the shared set break around them.
				split := func(flow float64) {
					for i := 1; i < n; i += 3 {
						d.apply(diffOp{kind: opFan, machine: c.Machines[i].Name, v: flow})
					}
				}
				split(51)
				step(5)
				split(float64(model.Table1.FanFlow)) // and back: A→B→A
				step(5)
				if cc.cfg.Workers == 1 {
					// Settle every machine to its fixed point, then wake
					// some: the stepping machines of one set are no longer
					// adjacent. Serial only, as in TestKernelDifferential:
					// under the race detector the pool's barriers would
					// make the settle the test's whole cost.
					step(20000)
					for i := 0; i < n; i += 2 {
						d.apply(diffOp{kind: opUtil, machine: c.Machines[i].Name,
							entries: []model.UtilSample{{Source: model.UtilCPU, Util: 0.9}}})
					}
					step(5)
				}
				rng := rand.New(rand.NewSource(int64(n)))
				for i := 0; i < 150; i++ {
					if rng.Intn(3) == 0 {
						d.apply(genRejoinOp(rng, c))
						continue
					}
					d.apply(genDiffOp(rng, c, false))
				}
				step(3)
			})
		}
	}
}

// setsOf is the room's interned set count and, per machine, the index
// of its set in order of first appearance.
func setsOf(s *Solver) (count int, of []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := map[*coefSet]int{}
	for mi := range s.ms {
		set := s.ms[mi].set
		if _, ok := seen[set]; !ok {
			seen[set] = len(seen)
		}
		of = append(of, seen[set])
	}
	return len(s.sets.sets), of
}

// TestGeneratedRoomsShareOneSetPerShape: every generated room compiles
// exactly one coefficient set per shape, so every stepping machine of a
// shape can step in a group of four.
func TestGeneratedRoomsShareOneSetPerShape(t *testing.T) {
	cmpRoom := func(n int) (*model.Cluster, error) {
		c, err := model.DefaultCluster("room", n)
		if err != nil {
			return nil, err
		}
		for i := range c.Machines {
			if c.Machines[i], err = model.CMPServer(c.Machines[i].Name, 4); err != nil {
				return nil, err
			}
		}
		return c, c.Validate()
	}
	rooms := []struct {
		name   string
		build  func() (*model.Cluster, error)
		shapes int
	}{
		{"default", func() (*model.Cluster, error) { return model.DefaultCluster("room", 12) }, 1},
		{"rack", func() (*model.Cluster, error) { return model.RackCluster("room", 3, 40, nil) }, 1},
		{"cmp", func() (*model.Cluster, error) { return cmpRoom(9) }, 1},
		{"mixed", func() (*model.Cluster, error) { return mixedShapeCluster(t), nil }, 3},
		{"single", func() (*model.Cluster, error) { return model.SingleRoom(model.DefaultServer("solo")), nil }, 1},
	}
	for _, r := range rooms {
		c, err := r.build()
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(c, Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		shapes := map[*kernelShape]*coefSet{}
		for mi := range s.ms {
			m := &s.ms[mi]
			if set, ok := shapes[m.shape]; ok && set != m.set {
				t.Errorf("%s: %s is in a second set of its shape", r.name, m.name)
			}
			shapes[m.shape] = m.set
			if m.set.shape != m.shape {
				t.Errorf("%s: %s is bound to a set of another shape", r.name, m.name)
			}
		}
		if n, _ := setsOf(s); len(shapes) != r.shapes || n != r.shapes {
			t.Errorf("%s: %d shapes and %d sets, want %d of each", r.name, len(shapes), n, r.shapes)
		}
		total := 0
		for _, set := range s.sets.sets {
			total += int(set.refs)
		}
		if total != len(s.ms) {
			t.Errorf("%s: sets hold %d references for %d machines", r.name, total, len(s.ms))
		}
	}
}

// setBits is every raw and derived number of a set, as bits.
func setBits(set *coefSet) []uint64 {
	var out []uint64
	for _, vs := range [][]float64{set.heatK, set.invThermal, set.coupleK, set.flowW, set.relFlow, set.airFrac, {set.fan}} {
		for _, v := range vs {
			out = append(out, math.Float64bits(v))
		}
	}
	for _, ac := range set.airCoefs {
		out = append(out, math.Float64bits(ac.wSum), math.Float64bits(ac.fCoef), math.Float64bits(ac.fkSum))
	}
	return out
}

// TestFiddleLeavesSetMatesUntouched: a constant fiddled on one machine
// moves that machine alone to a new set; its former set-mates keep
// their set, and the set keeps every bit.
func TestFiddleLeavesSetMatesUntouched(t *testing.T) {
	ops := []struct {
		name string
		op   func(s *Solver) error
	}{
		{"SetHeatK", func(s *Solver) error { return s.SetHeatK("machine2", model.NodeCPU, model.NodeCPUAir, 3) }},
		{"SetAirFraction", func(s *Solver) error {
			return s.SetAirFraction("machine2", model.NodeInlet, model.NodeDiskAir, 0.2)
		}},
		{"SetFanFlow", func(s *Solver) error { return s.SetFanFlow("machine2", 50) }},
		{"SetMachinePower", func(s *Solver) error { return s.SetMachinePower("machine2", false) }},
	}
	for _, o := range ops {
		t.Run(o.name, func(t *testing.T) {
			c, err := model.DefaultCluster("room", 3)
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(c, Config{})
			if err != nil {
				t.Fatal(err)
			}
			shared := s.ms[0].set
			before := setBits(shared)
			if err := o.op(s); err != nil {
				t.Fatal(err)
			}
			if s.ms[0].set != shared || s.ms[2].set != shared {
				t.Error("a set-mate of the fiddled machine changed set")
			}
			if s.ms[1].set == shared {
				t.Error("the fiddled machine stayed in the shared set")
			}
			if shared.refs != 2 {
				t.Errorf("shared set has %d references, want 2", shared.refs)
			}
			for i, b := range setBits(shared) {
				if b != before[i] {
					t.Fatalf("the shared set's number %d changed", i)
				}
			}
		})
	}
}

// TestWhatIfKeepsSets: a what-if that fiddles constants rewinds into
// exactly the sets it started from — the same count, the same machines
// sharing them — and leaves the shards' step order alone.
func TestWhatIfKeepsSets(t *testing.T) {
	s, err := New(mixedShapeCluster(t), Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetFanFlow(model.RackMachine(1, 2), 44); err != nil {
		t.Fatal(err)
	}
	n0, of0 := setsOf(s)
	var order0 [][]int32
	for _, sh := range s.shards {
		order0 = append(order0, append([]int32(nil), sh.idx...))
	}
	err = s.WhatIf(func(w *Solver) error {
		for _, name := range w.Machines() {
			if err := w.SetFanFlow(name, 60); err != nil {
				return err
			}
			if err := w.SetMachinePower(name, false); err != nil {
				return err
			}
		}
		if err := w.SetHeatK(model.RackMachine(1, 4), model.NodeCPU, model.NodeCPUAir, 9); err != nil {
			return err
		}
		w.StepN(10)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	n1, of1 := setsOf(s)
	if n1 != n0 || fmt.Sprint(of1) != fmt.Sprint(of0) {
		t.Errorf("after WhatIf: %d sets %v, before %d sets %v", n1, of1, n0, of0)
	}
	for i, sh := range s.shards {
		if fmt.Sprint(sh.idx) != fmt.Sprint(order0[i]) {
			t.Errorf("shard %d order %v, before %v", i, sh.idx, order0[i])
		}
	}
}

// TestFanTogglesReuseSets: toggling one machine's fan between two
// flows, as fanctl does, binds it to one of two sets and allocates
// nothing after the first round trip: the set toggled out waits in the
// free list and comes back with its windows and its key.
func TestFanTogglesReuseSets(t *testing.T) {
	c, err := model.DefaultCluster("room", 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	toggle := func() {
		for _, flow := range []units.CubicFeetPerMinute{55, model.Table1.FanFlow} {
			if err := s.SetFanFlow("machine3", flow); err != nil {
				t.Fatal(err)
			}
		}
	}
	toggle()
	if n := len(s.sets.sets) + len(s.sets.free[s.ms[0].shape]); n != 2 {
		t.Fatalf("%d sets after one round trip, want 2", n)
	}
	if a := testing.AllocsPerRun(100, toggle); a != 0 {
		t.Errorf("%v allocs per A/B toggle, want 0", a)
	}
	if n, _ := setsOf(s); n != 1 {
		t.Errorf("%d sets after toggling back, want 1", n)
	}
	free := 0
	for _, f := range s.sets.free {
		free += len(f)
	}
	if free != 1 {
		t.Errorf("%d free sets, want the one toggled out", free)
	}
}

// TestStepDoesNotAllocate: stepping allocates nothing whatever mix of
// groups of four and pairs the room's sets make, and neither does a
// utilization update.
func TestStepDoesNotAllocate(t *testing.T) {
	c, err := model.RackCluster("room", 2, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		s, err := New(c, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := 2; i < len(c.Machines); i += 5 {
			if err := s.SetFanFlow(c.Machines[i].Name, 45); err != nil {
				t.Fatal(err)
			}
		}
		k := 0
		if a := testing.AllocsPerRun(50, func() {
			k++
			_ = s.SetUtilization(c.Machines[k%len(c.Machines)].Name, model.UtilCPU, units.Fraction(k%7)/7)
			s.Step()
		}); a != 0 {
			t.Errorf("workers=%d: %v allocs per SetUtilization+Step, want 0", workers, a)
		}
	}
}

// TestNonFiniteConstantsRejected: a NaN or infinite heat constant or
// fan flow is refused by the fiddle and by a restore, before it can
// reach a set key or a temperature.
func TestNonFiniteConstantsRejected(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cpuAir := edgeKey(model.NodeCPU, model.NodeCPUAir)
	cases := []struct {
		name string
		op   func(s *Solver) error
	}{
		{"SetHeatK NaN", func(s *Solver) error {
			return s.SetHeatK("machine1", model.NodeCPU, model.NodeCPUAir, units.WattsPerKelvin(nan))
		}},
		{"SetHeatK +Inf", func(s *Solver) error {
			return s.SetHeatK("machine1", model.NodeCPU, model.NodeCPUAir, units.WattsPerKelvin(inf))
		}},
		{"SetFanFlow NaN", func(s *Solver) error { return s.SetFanFlow("machine1", units.CubicFeetPerMinute(nan)) }},
		{"SetFanFlow +Inf", func(s *Solver) error { return s.SetFanFlow("machine1", units.CubicFeetPerMinute(inf)) }},
		{"restore heat k NaN", func(s *Solver) error {
			st := s.SaveState()
			st.Machines["machine1"].HeatKs[cpuAir] = units.WattsPerKelvin(nan)
			return s.RestoreState(st)
		}},
		{"restore heat k +Inf", func(s *Solver) error {
			st := s.SaveState()
			st.Machines["machine1"].HeatKs[cpuAir] = units.WattsPerKelvin(inf)
			return s.RestoreState(st)
		}},
		{"restore fan flow NaN", func(s *Solver) error {
			st := s.SaveState()
			ms := st.Machines["machine1"]
			ms.FanFlow = units.CubicFeetPerMinute(nan)
			st.Machines["machine1"] = ms
			return s.RestoreState(st)
		}},
		{"restore fan flow +Inf", func(s *Solver) error {
			st := s.SaveState()
			ms := st.Machines["machine1"]
			ms.FanFlow = units.CubicFeetPerMinute(inf)
			st.Machines["machine1"] = ms
			return s.RestoreState(st)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := model.DefaultCluster("room", 2)
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(c, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.op(s); err == nil {
				t.Fatal("accepted a non-finite constant")
			}
			s.Step()
			for m, nodes := range s.Snapshot() {
				for node, v := range nodes {
					if !v.Valid() {
						t.Errorf("%s/%s = %v after one step", m, node, v)
					}
				}
			}
			var buf bytes.Buffer
			if err := WriteState(&buf, s.SaveState()); err != nil {
				t.Errorf("WriteState: %v", err)
			}
			if n, _ := setsOf(s); n != 1 {
				t.Errorf("%d sets after a rejected constant, want 1", n)
			}
		})
	}
}

// TestImportBoundaryRejectsNonFinite: one non-finite exhaust in a
// boundary import refuses the whole import, so no NaN reaches the
// importing region's inlets.
func TestImportBoundaryRejectsNonFinite(t *testing.T) {
	c, err := model.RackCluster("room", 3, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	regions, err := PartitionRegions(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(c, Config{Regions: regions, RegionIndex: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := s.BoundaryInFrom(0)
	if len(in) == 0 {
		t.Fatal("region 1 imports nothing from region 0")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -300} {
		temps := make([]float64, len(in))
		for i := range temps {
			temps[i] = 30
		}
		temps[len(temps)-1] = bad
		before := s.exhaust[in[0]]
		err := s.ImportBoundaryTemps(0, in, temps)
		if err == nil || !strings.Contains(err.Error(), "invalid") {
			t.Fatalf("import of %v: error %v, want an invalid-temperature error", bad, err)
		}
		if s.exhaust[in[0]] != before {
			t.Fatalf("import of %v applied the valid exhausts before it", bad)
		}
		s.Step()
		for m, nodes := range s.Snapshot() {
			for node, v := range nodes {
				if !v.Valid() {
					t.Fatalf("import of %v: %s/%s = %v after one step", bad, m, node, v)
				}
			}
		}
	}
}

// TestShardsGroupSets: New orders each shard's machines so that, within
// a shape, the machines of one set are adjacent, so a room whose model
// already splits a shape across sets still steps in groups of four.
func TestShardsGroupSets(t *testing.T) {
	c, err := model.DefaultCluster("room", 24)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(c.Machines); i += 3 {
		c.Machines[i].FanFlow = 50
	}
	for _, workers := range []int{1, 2, 3} {
		s, err := New(c, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := setsOf(s); n != 2 {
			t.Fatalf("%d sets, want 2", n)
		}
		for si, sh := range s.shards {
			runs, sets := 0, map[*coefSet]bool{}
			for k, mi := range sh.idx {
				if k == 0 || s.ms[sh.idx[k-1]].set != s.ms[mi].set {
					runs++
				}
				sets[s.ms[mi].set] = true
			}
			if runs != len(sets) {
				t.Errorf("workers=%d: shard %d has %d runs of %d sets: %v", workers, si, runs, len(sets), sh.idx)
			}
		}
	}
}
