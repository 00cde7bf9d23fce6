package solver

import (
	"fmt"
	"math"
	"testing"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

// TestShapeAliasing fiddles one machine of a three-machine room whose
// machines share one compiled shape and checks that nothing reaches the
// other two: every query on them equals an unfiddled twin's, before
// and after 50 steps. A mutator that wrote a shared table, or a window
// that overlapped a neighbour's, would show here.
func TestShapeAliasing(t *testing.T) {
	mutators := []struct {
		name string
		op   func(s *Solver, m string) error
	}{
		{"SetNodeTemperature", func(s *Solver, m string) error { return s.SetNodeTemperature(m, model.NodeCPU, 71) }},
		{"PinInlet", func(s *Solver, m string) error { return s.PinInlet(m, 35) }},
		{"UnpinInlet", func(s *Solver, m string) error {
			if err := s.PinInlet(m, 35); err != nil {
				return err
			}
			return s.UnpinInlet(m)
		}},
		{"SetHeatK", func(s *Solver, m string) error { return s.SetHeatK(m, model.NodeCPUAir, model.NodeCPU, 3.3) }},
		{"SetAirFraction", func(s *Solver, m string) error {
			return s.SetAirFraction(m, model.NodeInlet, model.NodeVoidAir, 0)
		}},
		{"SetFanFlow", func(s *Solver, m string) error { return s.SetFanFlow(m, 25) }},
		{"SetPowerScale", func(s *Solver, m string) error { return s.SetPowerScale(m, model.NodeCPU, 0.4) }},
		{"SetMachinePower", func(s *Solver, m string) error { return s.SetMachinePower(m, false) }},
		{"SetUtilization", func(s *Solver, m string) error { return s.SetUtilization(m, model.UtilDisk, 0.9) }},
		{"ApplyUtilization", func(s *Solver, m string) error {
			if n := s.ApplyUtilization(1, []model.UtilSample{{Source: model.UtilCPU, Util: 0.05}, {Source: model.UtilDisk, Util: 1}}); n != 0 {
				return fmt.Errorf("%d unknown entries", n)
			}
			return nil
		}},
	}
	c, err := model.DefaultCluster("room", 3)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *Solver {
		s, err := New(c, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 3; i++ {
			if err := s.SetUtilization(fmt.Sprintf("machine%d", i), model.UtilCPU, units.Fraction(i)/4); err != nil {
				t.Fatal(err)
			}
		}
		s.StepN(20)
		return s
	}
	if s := build(); s.ms[0].shape != s.ms[1].shape || s.ms[1].shape != s.ms[2].shape {
		t.Fatal("three identical servers compiled to more than one shape")
	}
	others := []string{"machine1", "machine3"}
	for _, mu := range mutators {
		t.Run(mu.name, func(t *testing.T) {
			fiddled, twin := build(), build()
			if err := mu.op(fiddled, "machine2"); err != nil {
				t.Fatal(err)
			}
			check := func(when string) {
				t.Helper()
				for _, m := range others {
					for _, q := range aliasQueries(t, m) {
						got, want := q.read(fiddled), q.read(twin)
						if got != want {
							t.Errorf("%s %s: %s %s = %v, unfiddled twin %v", mu.name, when, m, q.what, got, want)
						}
					}
				}
			}
			check("at once")
			fiddled.StepN(50)
			twin.StepN(50)
			check("after 50 steps")
		})
	}
}

// TestShapeInterning pins what New shares: machines of one structure
// get one shape whatever their constants, and any structural
// difference — order included — gets its own.
func TestShapeInterning(t *testing.T) {
	c := mixedShapeCluster(t)
	retuned := model.DefaultServer("retuned") // same structure, other constants
	retuned.HeatEdges[0].K *= 2
	retuned.AirEdges[0].Fraction, retuned.AirEdges[1].Fraction = 0.5, 0.4
	retuned.FanFlow, retuned.InletTemp = 20, 30
	retuned.Components[2].Mass *= 3
	renamed := model.DefaultServer("renamed")
	renamed.Components[1].Name, renamed.HeatEdges[0].B, renamed.HeatEdges[1].A = "shell", "shell", "shell"
	reordered := model.DefaultServer("reordered")
	reordered.HeatEdges[0], reordered.HeatEdges[1] = reordered.HeatEdges[1], reordered.HeatEdges[0]
	for _, m := range []*model.Machine{retuned, renamed, reordered} {
		c.Machines = append(c.Machines, m)
		c.Edges = append(c.Edges,
			model.ClusterEdge{From: model.NodeAC, To: m.Name, Fraction: 1},
			model.ClusterEdge{From: m.Name, To: model.NodeClusterExhaust, Fraction: 1})
	}
	s, err := New(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Machine i of mixedShapeCluster has shape i%3 (0 = DefaultServer);
	// the three extras follow at 8, 9 and 10.
	want := func(i int) int {
		switch i {
		case 8:
			return 0
		case 9, 10:
			return i
		}
		return i % 3
	}
	for i := range s.ms {
		for j := range s.ms {
			if same := s.ms[i].shape == s.ms[j].shape; same != (want(i) == want(j)) {
				t.Errorf("%s and %s share a shape: %v, want %v", s.ms[i].name, s.ms[j].name, same, !same)
			}
		}
	}
}

type aliasQuery struct {
	what string
	read func(s *Solver) string
}

// aliasQueries lists every per-machine query TestShapeAliasing
// compares, each rendered exactly (%v of a float64 round-trips).
func aliasQueries(t *testing.T, m string) []aliasQuery {
	must := func(v any, err error) string {
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(v)
	}
	qs := []aliasQuery{
		{"FanFlow", func(s *Solver) string { return must(s.FanFlow(m)) }},
		{"InletPinned", func(s *Solver) string {
			p, v, err := s.InletPinned(m)
			return must(fmt.Sprint(p, v), err)
		}},
		{"Temperatures", func(s *Solver) string { return must(s.Temperatures(m)) }},
		{"SteadyState", func(s *Solver) string { return must(s.SteadyState(m)) }},
		{"Energy", func(s *Solver) string { return must(s.Energy(m)) }},
		{"Power", func(s *Solver) string { return must(s.Power(m)) }},
		{"Exhaust", func(s *Solver) string { return must(s.ExhaustTemperature(m)) }},
		{"MachineOn", func(s *Solver) string { return must(s.MachineOn(m)) }},
	}
	for _, src := range []model.UtilSource{model.UtilCPU, model.UtilDisk} {
		qs = append(qs, aliasQuery{"Utilization " + string(src), func(s *Solver) string { return must(s.Utilization(m, src)) }})
	}
	for _, e := range model.DefaultServer(m).HeatEdges {
		qs = append(qs, aliasQuery{"HeatK " + e.A + "--" + e.B, func(s *Solver) string { return must(s.HeatK(m, e.A, e.B)) }})
	}
	return qs
}

// TestReadSurface pins the order and the short-dst results of the bulk
// read surface — ReadAllTemps, ReadSample, ReadInputs, Probes,
// Snapshot, MaxComponentTemp — against the per-machine queries, on a
// room of three interleaved shapes, unpartitioned and split into two
// regions whose owned machines alternate (so the owned temperature
// windows are many separate runs).
func TestReadSurface(t *testing.T) {
	c := mixedShapeCluster(t)
	var even, odd []string
	for i, m := range c.Machines {
		if i%2 == 0 {
			even = append(even, m.Name)
		} else {
			odd = append(odd, m.Name)
		}
	}
	cfgs := map[string]Config{
		"unpartitioned": {},
		"region 0":      {Regions: [][]string{even, odd}, RegionIndex: 0},
		"region 1":      {Regions: [][]string{even, odd}, RegionIndex: 1},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			s, err := New(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			layout := s.SampleLayout()
			for i, l := range layout {
				if err := s.SetUtilization(l.Name, l.Utils[0], units.Fraction(i+1)/10); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.SetMachinePower(layout[1].Name, false); err != nil {
				t.Fatal(err)
			}
			if err := s.PinInlet(layout[0].Name, 29); err != nil {
				t.Fatal(err)
			}
			s.StepN(30)
			checkReadSurface(t, s, layout)
		})
	}
}

func checkReadSurface(t *testing.T, s *Solver, layout []MachineLayout) {
	t.Helper()
	must := func(v units.Celsius, err error) float64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return float64(v)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

	// The expectations, from per-machine queries in SampleLayout order.
	var probeM, probeN []string
	var temps, sample, inputs []float64
	var sampleEnds, inputEnds []int // row length after each machine
	bestT, bestM, bestN := math.Inf(-1), "", ""
	for _, l := range layout {
		on, err := s.MachineOn(l.Name)
		if err != nil {
			t.Fatal(err)
		}
		head := []float64{0, must(s.InletTemperature(l.Name))}
		if on {
			head[0] = 1
		}
		for _, src := range l.Utils {
			u, err := s.Utilization(l.Name, src)
			if err != nil {
				t.Fatal(err)
			}
			head = append(head, float64(u))
		}
		exhaust := must(s.ExhaustTemperature(l.Name))
		sample = append(sample, head...)
		inputs = append(append(inputs, head...), exhaust)
		for _, node := range l.Nodes {
			v := must(s.Temperature(l.Name, node))
			probeM, probeN = append(probeM, l.Name), append(probeN, node)
			temps = append(temps, v)
			sample = append(sample, v)
			if v > bestT {
				bestT, bestM, bestN = v, l.Name, node
			}
		}
		sample = append(sample, exhaust)
		sampleEnds = append(sampleEnds, len(sample))
		inputEnds = append(inputEnds, len(inputs))
	}

	gotM, gotN := s.Probes()
	if fmt.Sprint(gotM) != fmt.Sprint(probeM) || fmt.Sprint(gotN) != fmt.Sprint(probeN) {
		t.Fatalf("Probes() = %v %v, want %v %v", gotM, gotN, probeM, probeN)
	}
	// wholeRows is the row prefix a reader that stops at the last
	// machine fitting in n entries writes.
	wholeRows := func(ends []int, n int) int {
		k := 0
		for _, e := range ends {
			if e > n {
				break
			}
			k = e
		}
		return k
	}
	for n := 0; n <= len(sample)+2; n++ {
		dst := make([]float64, n)
		if got, want := s.ReadAllTemps(dst), min(n, len(temps)); got != want {
			t.Fatalf("ReadAllTemps(len %d) = %d, want %d", n, got, want)
		}
		for i := 0; i < min(n, len(temps)); i++ {
			if !same(dst[i], temps[i]) {
				t.Fatalf("ReadAllTemps(len %d)[%d] = %v, want %v (%s/%s)", n, i, dst[i], temps[i], probeM[i], probeN[i])
			}
		}
		got, step, gen := s.ReadSample(dst)
		if want := wholeRows(sampleEnds, n); got != want || step != s.Steps() || gen != s.ModelGeneration() {
			t.Fatalf("ReadSample(len %d) = %d, %d, %d; want %d, %d, %d", n, got, step, gen, want, s.Steps(), s.ModelGeneration())
		}
		for i := 0; i < got; i++ {
			if !same(dst[i], sample[i]) {
				t.Fatalf("ReadSample(len %d)[%d] = %v, want %v", n, i, dst[i], sample[i])
			}
		}
		got, gen = s.ReadInputs(dst)
		if want := wholeRows(inputEnds, n); got != want || gen != s.ModelGeneration() {
			t.Fatalf("ReadInputs(len %d) = %d, %d; want %d, %d", n, got, gen, want, s.ModelGeneration())
		}
		for i := 0; i < got; i++ {
			if !same(dst[i], inputs[i]) {
				t.Fatalf("ReadInputs(len %d)[%d] = %v, want %v", n, i, dst[i], inputs[i])
			}
		}
	}

	snap := s.Snapshot()
	if len(snap) != len(layout) {
		t.Fatalf("Snapshot has %d machines, want %d", len(snap), len(layout))
	}
	for i, m := range probeM {
		if got := float64(snap[m][probeN[i]]); !same(got, temps[i]) {
			t.Fatalf("Snapshot %s/%s = %v, want %v", m, probeN[i], got, temps[i])
		}
	}
	if v, m, n := s.MaxComponentTemp(); !same(float64(v), bestT) || m != bestM || n != bestN {
		t.Fatalf("MaxComponentTemp() = %v %s/%s, want %v %s/%s", v, m, n, bestT, bestM, bestN)
	}

	row := make([]float64, len(sample))
	for name, read := range map[string]func(){
		"ReadAllTemps": func() { s.ReadAllTemps(row) },
		"ReadSample":   func() { s.ReadSample(row) },
		"ReadInputs":   func() { s.ReadInputs(row) },
	} {
		if a := testing.AllocsPerRun(50, read); a != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, a)
		}
	}
}
