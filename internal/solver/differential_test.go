package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

// The differential test drives the frozen parent kernel
// (reference_test.go) and the shape-shared room kernel through the same
// seeded random sequences of every fiddle op, utilization updates,
// source setpoints, save/restore and what-if rewinds, and compares
// temperatures, energy, exhaust, inlet, Power and LastStepDelta bit for
// bit after every step. The reference steps every machine every step,
// so every comparison also holds the solver's active set to exhaustive
// stepping.

type diffKind int

const (
	opStep diffKind = iota
	opStepN
	opSettle
	opQuiesce
	opUtil
	opApply
	opNodeTemp
	opPin
	opUnpin
	opSource
	opHeatK
	opAirFrac
	opFan
	opScale
	opPower
	opSave
	opRestore
	opWhatIf
)

type diffOp struct {
	kind    diffKind
	machine string
	a, b    string
	entries []model.UtilSample
	v       float64
	on      bool
	n       int
	inner   []diffOp // opWhatIf's hypothetical ops
}

func (op diffOp) String() string {
	return fmt.Sprintf("op%d(%s %s %s v=%v on=%v n=%d entries=%v)", op.kind, op.machine, op.a, op.b, op.v, op.on, op.n, op.entries)
}

// genDiffOp draws one random operation valid for cluster c. Inside a
// what-if (inner) it draws no save, restore, settle or nested what-if.
func genDiffOp(rng *rand.Rand, c *model.Cluster, inner bool) diffOp {
	m := c.Machines[rng.Intn(len(c.Machines))]
	var sources []model.UtilSource
	for _, comp := range m.Components {
		if comp.Util != model.UtilNone {
			sources = append(sources, comp.Util)
		}
	}
	util := func() units.Fraction {
		switch rng.Intn(5) {
		case 0:
			return 1.3 // clamped
		case 1:
			return 0.5 // a frequent repeat, which must not wake a quiet machine
		}
		return units.Fraction(rng.Float64())
	}
	op := diffOp{machine: m.Name}
	switch k := rng.Intn(22); {
	case k < 7:
		op.kind = opStep
	case k < 8:
		op.kind, op.n = opStepN, 2+rng.Intn(40)
	case k < 10:
		op.kind = opUtil
		op.entries = []model.UtilSample{{Source: sources[rng.Intn(len(sources))], Util: util()}}
	case k < 11:
		op.kind = opApply
		for i := 1 + rng.Intn(3); i > 0; i-- {
			src := model.UtilSource("fan") // unknown to every machine
			if rng.Intn(4) > 0 {
				src = sources[rng.Intn(len(sources))]
			}
			op.entries = append(op.entries, model.UtilSample{Source: src, Util: util()})
		}
	case k < 12:
		op.kind = opNodeTemp
		if rng.Intn(2) == 0 {
			op.a = m.Components[rng.Intn(len(m.Components))].Name
		} else {
			op.a = m.AirNodes[rng.Intn(len(m.AirNodes))].Name
		}
		op.v = 15 + 60*rng.Float64()
	case k < 13:
		op.kind, op.v = opPin, 18+20*rng.Float64()
	case k < 14:
		op.kind = opUnpin
	case k < 15:
		op.kind, op.a, op.v = opSource, c.Sources[0].Name, 16+14*rng.Float64()
	case k < 16:
		e := m.HeatEdges[rng.Intn(len(m.HeatEdges))]
		op.kind, op.a, op.b, op.v = opHeatK, e.A, e.B, 5*rng.Float64()
		if rng.Intn(2) == 0 {
			op.a, op.b = op.b, op.a
		}
		if rng.Intn(6) == 0 {
			op.v = 0
		}
	case k < 17:
		e := m.AirEdges[rng.Intn(len(m.AirEdges))]
		op.kind, op.a, op.b, op.v = opAirFrac, e.From, e.To, rng.Float64()
		if rng.Intn(4) == 0 {
			op.v = 0
		}
	case k < 18:
		op.kind, op.v = opFan, 20+40*rng.Float64()
	case k < 19:
		op.kind = opScale
		op.a = m.Components[rng.Intn(len(m.Components))].Name
		op.v = rng.Float64()
	case k < 20:
		op.kind, op.on = opPower, rng.Intn(3) > 0
	case inner:
		op.kind = opStep
	default:
		switch rng.Intn(3) {
		case 0:
			op.kind = opSave
		case 1:
			op.kind = opRestore
		default:
			op.kind = opWhatIf
			for i := 1 + rng.Intn(6); i > 0; i-- {
				op.inner = append(op.inner, genDiffOp(rng, c, true))
			}
		}
	}
	return op
}

// diffSUT is the room kernel under test: one solver, or the two region
// instances of a partitioned room exchanging boundary exhausts after
// every step.
type diffSUT struct {
	parts []*Solver
	names [][]string     // each part's Machines()
	owner map[string]int // machine -> part
	pos   map[string]int // machine -> index in its part's Machines()
	saved []*State
	buf   []float64
}

func newDiffSUT(t testing.TB, c *model.Cluster, cfg Config, regions int) *diffSUT {
	t.Helper()
	u := &diffSUT{owner: map[string]int{}, pos: map[string]int{}}
	var regs [][]string
	if regions > 1 {
		var err error
		if regs, err = PartitionRegions(c, regions); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < max(regions, 1); i++ {
		pc := cfg
		pc.Regions, pc.RegionIndex = regs, i
		s, err := New(c, pc)
		if err != nil {
			t.Fatal(err)
		}
		u.parts = append(u.parts, s)
		u.names = append(u.names, s.Machines())
		for k, name := range u.names[i] {
			u.owner[name] = i
			u.pos[name] = k
		}
	}
	u.buf = make([]float64, 64*len(c.Machines))
	return u
}

func (u *diffSUT) exchange(t testing.TB) {
	for i, p := range u.parts {
		for _, peer := range p.BoundaryPeers() {
			out := p.BoundaryOutTo(peer)
			if len(out) == 0 {
				continue
			}
			n := p.ExportBoundary(peer, u.buf)
			if err := u.parts[peer].ImportBoundaryTemps(i, out, u.buf[:n]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func (u *diffSUT) stepN(t testing.TB, n int) {
	if len(u.parts) == 1 {
		u.parts[0].StepN(n)
		return
	}
	for k := 0; k < n; k++ {
		for _, p := range u.parts {
			p.Step()
		}
		u.exchange(t)
	}
}

func (u *diffSUT) at(machine string) *Solver { return u.parts[u.owner[machine]] }

// whatIf runs fn inside every part's WhatIf at once.
func (u *diffSUT) whatIf(t testing.TB, fn func()) {
	var nest func(i int) error
	nest = func(i int) error {
		if i == len(u.parts) {
			fn()
			return nil
		}
		return u.parts[i].WhatIf(func(*Solver) error { return nest(i + 1) })
	}
	if err := nest(0); err != nil {
		t.Fatal(err)
	}
}

type diffRun struct {
	t     testing.TB
	sut   *diffSUT
	ref   *refRoom
	saved *State
	label string
}

// newDiffRun builds room c as the kernel under test — one solver under
// cfg, or the instances of its split into regions — beside the frozen
// reference, checks that both start equal, and applies setup to both.
func newDiffRun(t testing.TB, c *model.Cluster, cfg Config, regions int, setup ...diffOp) *diffRun {
	t.Helper()
	ref, err := newRefRoom(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := &diffRun{t: t, sut: newDiffSUT(t, c, cfg, regions), ref: ref, label: "initial state"}
	d.compare()
	for _, op := range setup {
		d.apply(op)
	}
	return d
}

// solver is the kernel under test when it is one unpartitioned solver.
func (d *diffRun) solver() *Solver { return d.sut.parts[0] }

func (d *diffRun) must(err error) {
	d.t.Helper()
	if err != nil {
		d.t.Fatalf("%s: %v", d.label, err)
	}
}

// apply performs op on both kernels, comparing after every step.
func (d *diffRun) apply(op diffOp) {
	t, u, ref := d.t, d.sut, d.ref
	t.Helper()
	d.label = op.String()
	switch op.kind {
	case opStep:
		u.stepN(t, 1)
		ref.stepN(1)
		d.compare()
	case opStepN, opSettle:
		u.stepN(t, op.n)
		ref.stepN(op.n)
		d.compare()
	case opQuiesce:
		// Step to the room's exact fixed point, where every machine is
		// quiet and stepN skips even the inlet sweep.
		for k := 0; k < 25 && (k == 0 || ref.lastDelta != 0); k++ {
			u.stepN(t, 2000)
			ref.stepN(2000)
		}
		d.compare()
		if ref.lastDelta != 0 {
			t.Fatalf("%s: no exact fixed point within 50000 steps (delta %v)", d.label, ref.lastDelta)
		}
	case opUtil:
		e := op.entries[0]
		d.must(u.at(op.machine).SetUtilization(op.machine, e.Source, e.Util))
		ref.setUtilization(op.machine, e.Source, e.Util)
	case opApply:
		want := 0
		for _, e := range op.entries {
			if _, ok := ref.byName[op.machine].utilPos[e.Source]; !ok {
				want++
				continue
			}
			ref.setUtilization(op.machine, e.Source, e.Util)
		}
		if got := u.at(op.machine).ApplyUtilization(u.pos[op.machine], op.entries); got != want {
			t.Fatalf("%s: ApplyUtilization reported %d unknown, want %d", d.label, got, want)
		}
	case opNodeTemp:
		d.must(u.at(op.machine).SetNodeTemperature(op.machine, op.a, units.Celsius(op.v)))
		ref.setNodeTemperature(op.machine, op.a, units.Celsius(op.v))
	case opPin:
		d.must(u.at(op.machine).PinInlet(op.machine, units.Celsius(op.v)))
		ref.pinInlet(op.machine, units.Celsius(op.v))
	case opUnpin:
		d.must(u.at(op.machine).UnpinInlet(op.machine))
		ref.unpinInlet(op.machine)
	case opSource:
		for _, p := range u.parts {
			d.must(p.SetSourceTemperature(op.a, units.Celsius(op.v)))
		}
		ref.setSourceTemperature(op.a, units.Celsius(op.v))
	case opHeatK:
		d.must(u.at(op.machine).SetHeatK(op.machine, op.a, op.b, units.WattsPerKelvin(op.v)))
		ref.setHeatK(op.machine, op.a, op.b, units.WattsPerKelvin(op.v))
	case opAirFrac:
		d.must(u.at(op.machine).SetAirFraction(op.machine, op.a, op.b, units.Fraction(op.v)))
		d.must(ref.setAirFraction(op.machine, op.a, op.b, units.Fraction(op.v)))
	case opFan:
		d.must(u.at(op.machine).SetFanFlow(op.machine, units.CubicFeetPerMinute(op.v)))
		ref.setFanFlow(op.machine, units.CubicFeetPerMinute(op.v))
	case opScale:
		d.must(u.at(op.machine).SetPowerScale(op.machine, op.a, units.Fraction(op.v)))
		ref.setPowerScale(op.machine, op.a, units.Fraction(op.v))
	case opPower:
		d.must(u.at(op.machine).SetMachinePower(op.machine, op.on))
		ref.setMachinePower(op.machine, op.on)
	case opSave:
		u.saved = u.saved[:0]
		for _, p := range u.parts {
			u.saved = append(u.saved, p.SaveState())
		}
		d.saved = ref.saveState()
	case opRestore:
		if d.saved == nil {
			return
		}
		for i, p := range u.parts {
			d.must(p.RestoreState(u.saved[i]))
		}
		d.must(ref.restoreState(d.saved))
		d.compare()
	case opWhatIf:
		st := ref.saveState()
		u.whatIf(t, func() {
			for _, in := range op.inner {
				d.apply(in)
			}
		})
		d.must(ref.restoreState(st))
		d.label = op.String() + " rewound"
		d.compare()
	}
}

// compare checks every observable the step kernel produces.
func (d *diffRun) compare() {
	t, u, ref := d.t, d.sut, d.ref
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	var delta float64
	for i, p := range u.parts {
		n := p.ReadAllTemps(u.buf)
		k := 0
		for _, name := range u.names[i] {
			cm := ref.byName[name]
			for j, want := range cm.temps {
				if got := u.buf[k]; !same(got, want) {
					t.Fatalf("%s: %s/%s = %v, reference %v", d.label, name, cm.names[j], got, want)
				}
				k++
			}
			checks := []struct {
				what string
				got  func(string) (float64, error)
				want float64
			}{
				{"energy", func(m string) (float64, error) { v, err := p.Energy(m); return float64(v), err }, cm.energy},
				{"exhaust", func(m string) (float64, error) { v, err := p.ExhaustTemperature(m); return float64(v), err }, cm.exhaustTemp},
				{"inlet", func(m string) (float64, error) { v, err := p.InletTemperature(m); return float64(v), err }, cm.inletTemp},
				{"power", func(m string) (float64, error) { v, err := p.Power(m); return float64(v), err }, cm.power()},
			}
			for _, c := range checks {
				got, err := c.got(name)
				if err != nil {
					t.Fatal(err)
				}
				if !same(got, c.want) {
					t.Fatalf("%s: %s %s = %v, reference %v", d.label, name, c.what, got, c.want)
				}
			}
		}
		if n != k {
			t.Fatalf("%s: ReadAllTemps wrote %d, want %d", d.label, n, k)
		}
		delta = max(delta, float64(p.LastStepDelta()))
	}
	if !same(delta, ref.lastDelta) {
		t.Fatalf("%s: LastStepDelta %v, reference %v", d.label, delta, ref.lastDelta)
	}
}

// mixedShapeCluster interleaves DefaultServers with 4- and 6-core CMP
// servers — three shapes alternating in machine order — in two racks
// of recirculating chains.
func mixedShapeCluster(t *testing.T) *model.Cluster {
	t.Helper()
	c := &model.Cluster{
		Name:    "mixed",
		Sources: []model.ClusterSource{{Name: model.NodeAC, SupplyTemp: model.Table1.InletTemp}},
		Sinks:   []model.ClusterSink{{Name: model.NodeClusterExhaust}},
	}
	i := 0
	for rack := 1; rack <= 2; rack++ {
		for h := 1; h <= 4; h++ {
			name := model.RackMachine(rack, h)
			m := model.DefaultServer(name)
			if i%3 > 0 {
				var err error
				if m, err = model.CMPServer(name, 2+2*(i%3)); err != nil {
					t.Fatal(err)
				}
			}
			i++
			c.Machines = append(c.Machines, m)
			share := units.Fraction(0.1 * float64(h))
			if h == 1 {
				c.Edges = append(c.Edges, model.ClusterEdge{From: model.NodeAC, To: name, Fraction: 1})
			} else {
				prev := units.Fraction(0.1 * float64(h-1))
				c.Edges = append(c.Edges,
					model.ClusterEdge{From: model.NodeAC, To: name, Fraction: 1 - prev},
					model.ClusterEdge{From: model.RackMachine(rack, h-1), To: name, Fraction: prev})
			}
			up := units.Fraction(0)
			if h < 4 {
				up = share
			}
			c.Edges = append(c.Edges, model.ClusterEdge{From: name, To: model.NodeClusterExhaust, Fraction: 1 - up})
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// quietMutator is one mutator kind applied from an all-quiet room,
// named for its subtest.
type quietMutator struct {
	name string
	op   diffOp
}

// quietMutators lists every mutator kind once, for applying to an
// all-quiet room (diffRun.quietOps). An all-quiet room skips the inlet
// sweep, so a mutator that does not mark what it changes would leave
// the room frozen. The mutators target a machine whose exhaust crosses
// the cut between two regions, so in a two-region SUT every step after
// one also imports a changed boundary exhaust into the peer region.
func quietMutators(t *testing.T, c *model.Cluster) []quietMutator {
	t.Helper()
	regs, err := PartitionRegions(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	first := map[string]bool{}
	for _, name := range regs[0] {
		first[name] = true
	}
	var m *model.Machine
	for _, e := range c.Edges {
		if first[e.From] && !first[e.To] && e.To != model.NodeClusterExhaust {
			m = c.Machine(e.From)
			break
		}
	}
	if m == nil {
		t.Fatal("no air edge crosses the two-region cut")
	}
	heat, air := m.HeatEdges[0], m.AirEdges[0]
	mutators := []quietMutator{
		{"util", diffOp{kind: opUtil, entries: cpuUtil(0.7)}},
		{"apply", diffOp{kind: opApply, entries: append(cpuUtil(0.2), model.UtilSample{Source: model.UtilDisk, Util: 0.4})}},
		{"nodetemp", diffOp{kind: opNodeTemp, a: model.NodeCPU, v: 60}},
		{"pin", diffOp{kind: opPin, v: 30}},
		{"unpin", diffOp{kind: opUnpin}},
		{"source", diffOp{kind: opSource, a: model.NodeAC, v: 25}},
		{"heatk", diffOp{kind: opHeatK, a: heat.A, b: heat.B, v: 3}},
		{"airfrac", diffOp{kind: opAirFrac, a: air.From, b: air.To, v: 0.5}},
		{"fan", diffOp{kind: opFan, v: 40}},
		{"scale", diffOp{kind: opScale, a: model.NodeCPU, v: 0.5}},
		{"power", diffOp{kind: opPower, on: false}},
		{"restore", diffOp{kind: opRestore}},
		{"whatif", diffOp{kind: opWhatIf, inner: []diffOp{{kind: opUtil, machine: m.Name, entries: cpuUtil(1)}, {kind: opStepN, n: 3}}}},
	}
	for i := range mutators {
		mutators[i].op.machine = m.Name
	}
	return mutators
}

// quietOps applies every mutator kind once, each in its own subtest:
// it steps the room to its exact fixed point before each one and a few
// steps after it. The state restored is the initial one, mid-transient,
// so the restore must wake the room.
func (d *diffRun) quietOps(t *testing.T, c *model.Cluster) {
	t.Helper()
	d.apply(diffOp{kind: opSave})
	parent := d.t
	defer func() { d.t = parent }()
	for _, q := range quietMutators(t, c) {
		ok := t.Run("quiet/"+q.name, func(t *testing.T) {
			d.t = t
			d.apply(diffOp{kind: opQuiesce})
			d.apply(q.op)
			d.apply(diffOp{kind: opStepN, n: 3})
		})
		if !ok {
			t.FailNow()
		}
	}
}

// TestKernelDifferential is the room kernel's contract with the kernel
// it replaced: bit-identical observables through any mix of inputs, on
// heterogeneous rooms, at every worker count, and split across two
// regions. The rooms cover every way the pair kernel forms its pairs:
// even rooms of one shape, an odd room whose last machine pairs with
// itself, a one-machine room, three shapes that never sit side by
// side, and three workers, whose shard cuts fall mid-pair. The odd
// room, stepped serially, also applies every mutator from an all-quiet
// room (diffRun.quietOps).
func TestKernelDifferential(t *testing.T) {
	rooms := []struct {
		name      string
		build     func(t *testing.T) *model.Cluster
		setup     []diffOp
		fromQuiet bool
	}{
		{"default", func(t *testing.T) *model.Cluster {
			c, err := model.DefaultCluster("room", 8)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}, nil, false},
		{"rack", func(t *testing.T) *model.Cluster {
			c, err := model.RackCluster("room", 2, 4, nil)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}, nil, false},
		{"odd", func(t *testing.T) *model.Cluster {
			c, err := model.RackCluster("room", 3, 5, nil)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}, nil, true},
		{"single", func(t *testing.T) *model.Cluster {
			return model.SingleRoom(model.DefaultServer("solo"))
		}, nil, false},
		{"mixed", mixedShapeCluster, []diffOp{
			{kind: opPower, machine: model.RackMachine(1, 3), on: false},
			{kind: opAirFrac, machine: model.RackMachine(2, 2), a: model.NodeInlet, b: model.NodeVoidAir, v: 0},
		}, false},
	}
	configs := []struct {
		cfg     Config
		regions int
	}{
		{Config{Workers: 1}, 1},
		{Config{Workers: 2}, 1},
		{Config{Workers: 3}, 1},
		{Config{Workers: 4}, 1},
		{Config{Workers: 1}, 2},
		{Config{Workers: 2}, 2},
		{Config{Workers: 3}, 2},
		{Config{Workers: 4}, 2},
	}
	for _, room := range rooms {
		for _, cc := range configs {
			if room.name == "single" && cc.regions > 1 {
				continue // one machine cannot be split
			}
			for _, seed := range []int64{1, 2} {
				name := fmt.Sprintf("%s/workers=%d/regions=%d/seed=%d", room.name, cc.cfg.Workers, cc.regions, seed)
				t.Run(name, func(t *testing.T) {
					c := room.build(t)
					d := newDiffRun(t, c, cc.cfg, cc.regions, room.setup...)
					// Serial only, on one seed: quiescence is per machine,
					// and the pool's barriers would make the long settles
					// the whole test's cost under the race detector.
					serial := cc.cfg.Workers == 1 && seed == 1
					if serial && room.fromQuiet {
						d.quietOps(t, c)
					}
					rng := rand.New(rand.NewSource(seed))
					const ops = 400
					for i := 0; i < ops; i++ {
						if i == ops/2 && serial {
							// Long enough for most machines to reach their
							// exact fixed point, so the quiescent paths
							// and the all-quiet fast path run too.
							d.apply(diffOp{kind: opSettle, n: 20000})
						}
						d.apply(genDiffOp(rng, c, false))
					}
				})
			}
		}
	}
}
