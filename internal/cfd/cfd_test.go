package cfd

import (
	"math"
	"testing"

	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/units"
)

func solve(t *testing.T, c *Case, powers map[string]units.Watts) *Result {
	t.Helper()
	res, err := c.Solve(powers)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDefaultCaseConverges(t *testing.T) {
	res := solve(t, DefaultCase(), nil)
	if res.Iterations <= 0 || res.Residual > 1e-6 {
		t.Errorf("iterations=%d residual=%g", res.Iterations, res.Residual)
	}
}

func TestComponentsAboveAmbient(t *testing.T) {
	c := DefaultCase()
	res := solve(t, c, nil)
	for _, b := range c.Blocks {
		mean, err := res.BlockMean(b.Name)
		if err != nil {
			t.Fatal(err)
		}
		if mean <= c.InletTemp {
			t.Errorf("%s mean %v not above inlet %v", b.Name, mean, c.InletTemp)
		}
		max, err := res.BlockMax(b.Name)
		if err != nil {
			t.Fatal(err)
		}
		if max < mean {
			t.Errorf("%s max %v below mean %v", b.Name, max, mean)
		}
	}
}

func TestFieldBounded(t *testing.T) {
	c := DefaultCase()
	res := solve(t, c, nil)
	for i, temp := range res.Temps {
		if temp < float64(c.InletTemp)-1e-9 {
			t.Fatalf("cell %d at %v below inlet: advection/conduction cannot cool below source", i, temp)
		}
		if temp > 300 {
			t.Fatalf("cell %d at %v implausibly hot", i, temp)
		}
	}
}

func TestMorePowerIsHotter(t *testing.T) {
	c := DefaultCase()
	low := solve(t, c, map[string]units.Watts{"cpu": 7})
	high := solve(t, c, map[string]units.Watts{"cpu": 31})
	lowT, _ := low.BlockMean("cpu")
	highT, _ := high.BlockMean("cpu")
	if highT <= lowT {
		t.Errorf("cpu at 31W (%v) not hotter than at 7W (%v)", highT, lowT)
	}
	// Upstream disk is unaffected by the downstream CPU's power.
	lowD, _ := low.BlockMean("disk")
	highD, _ := high.BlockMean("disk")
	if math.Abs(float64(highD-lowD)) > 0.2 {
		t.Errorf("upstream disk moved %v when CPU power changed", highD-lowD)
	}
}

func TestLinearityInPower(t *testing.T) {
	// Constant-property conduction+advection is linear: temperature
	// rises superpose. T(2P) - T(0) = 2 (T(P) - T(0)).
	c := DefaultCase()
	zero := solve(t, c, map[string]units.Watts{"cpu": 0, "disk": 0, "ps": 0})
	one := solve(t, c, map[string]units.Watts{"cpu": 10, "disk": 0, "ps": 0})
	two := solve(t, c, map[string]units.Watts{"cpu": 20, "disk": 0, "ps": 0})
	z, _ := zero.BlockMean("cpu")
	a, _ := one.BlockMean("cpu")
	b, _ := two.BlockMean("cpu")
	if math.Abs(float64(b-z)-2*float64(a-z)) > 0.05 {
		t.Errorf("nonlinear response: rise(10W)=%v rise(20W)=%v", a-z, b-z)
	}
}

func TestFasterAirCools(t *testing.T) {
	slow := DefaultCase()
	fast := DefaultCase()
	fast.InletVelocity = 2 * slow.InletVelocity
	st, _ := solve(t, slow, nil).BlockMean("ps")
	ft, _ := solve(t, fast, nil).BlockMean("ps")
	if ft >= st {
		t.Errorf("doubling airflow did not cool the PS: %v -> %v", st, ft)
	}
}

func TestExtractK(t *testing.T) {
	c := DefaultCase()
	res := solve(t, c, nil)
	k, err := res.ExtractK("cpu", 7)
	if err != nil {
		t.Fatal(err)
	}
	if k <= 0 || k > 10 {
		t.Errorf("extracted k = %v, implausible", k)
	}
	if _, err := res.ExtractK("ghost", 7); err == nil {
		t.Error("unknown block: want error")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Case)
	}{
		{"tiny grid", func(c *Case) { c.W = 2 }},
		{"zero cell", func(c *Case) { c.CellSize = 0 }},
		{"zero depth", func(c *Case) { c.Depth = 0 }},
		{"zero velocity", func(c *Case) { c.InletVelocity = 0 }},
		{"bad inlet temp", func(c *Case) { c.InletTemp = -400 }},
		{"empty block name", func(c *Case) { c.Blocks[0].Name = "" }},
		{"dup block", func(c *Case) { c.Blocks[1].Name = c.Blocks[0].Name }},
		{"block off grid", func(c *Case) { c.Blocks[0].X1 = c.W + 5 }},
		{"empty block", func(c *Case) { c.Blocks[0].X1 = c.Blocks[0].X0 }},
		{"block on inlet", func(c *Case) { c.Blocks[0].X0 = 0 }},
		{"negative power", func(c *Case) { c.Blocks[0].Power = -1 }},
		{"air block", func(c *Case) { c.Blocks[0].Mat = Air }},
	}
	for _, tc := range cases {
		c := DefaultCase()
		tc.mut(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

func TestFullyBlockedColumn(t *testing.T) {
	c := DefaultCase()
	c.Blocks = append(c.Blocks, Block{Name: "wall", X0: 30, Y0: 0, X1: 31, Y1: c.H, Mat: Steel})
	if _, err := c.Solve(nil); err == nil {
		t.Error("fully blocked column: want error")
	}
}

func TestMercuryAnalogStructure(t *testing.T) {
	c := DefaultCase()
	m, err := c.MercuryAnalog("case2d")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(m.Components) != 3 {
		t.Errorf("components = %d", len(m.Components))
	}
	// Disk and PS share the top band in flow order; CPU sits alone in
	// the bottom band.
	var hasDiskToPS bool
	for _, e := range m.AirEdges {
		if e.From == "disk_air" && e.To == "ps_air" {
			hasDiskToPS = true
		}
		if e.From == "cpu_air" && e.To != "exhaust" {
			t.Errorf("cpu band should go straight to exhaust, goes to %s", e.To)
		}
	}
	if !hasDiskToPS {
		t.Error("disk_air -> ps_air band edge missing")
	}
	if m.FanFlow != c.MassFlow() {
		t.Errorf("fan flow = %v, want %v", m.FanFlow, c.MassFlow())
	}
}

func TestSetAnalogK(t *testing.T) {
	c := DefaultCase()
	m, _ := c.MercuryAnalog("case2d")
	if err := SetAnalogK(m, "cpu", 0.41); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range m.HeatEdges {
		if e.A == "cpu" && e.K == 0.41 {
			found = true
		}
	}
	if !found {
		t.Error("k not applied")
	}
	if err := SetAnalogK(m, "ghost", 1); err == nil {
		t.Error("unknown block: want error")
	}
}

func TestAnalogTracksCFDAfterKExtraction(t *testing.T) {
	// The paper's §3.2 method: extract boundary properties from the
	// fine simulation, enter them into Mercury, compare steady states.
	c := DefaultCase()
	ref := solve(t, c, nil)
	m, err := c.MercuryAnalog("case2d")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range c.Blocks {
		k, err := ref.ExtractK(b.Name, b.Power)
		if err != nil {
			t.Fatal(err)
		}
		if err := SetAnalogK(m, b.Name, k); err != nil {
			t.Fatal(err)
		}
	}
	s, err := solver.NewSingle(m, solver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	steady, err := s.SteadyState("case2d")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range c.Blocks {
		want, _ := ref.BlockMean(b.Name)
		got := steady[b.Name]
		if math.Abs(float64(got-want)) > 2.5 {
			t.Errorf("%s: analog %v vs cfd %v (k extraction should land within a couple of degrees before fitting)",
				b.Name, got, want)
		}
	}
}

func TestMaterialStrings(t *testing.T) {
	if Air.String() != "air" || Aluminum.String() != "aluminum" ||
		Steel.String() != "steel" || FR4.String() != "fr4" {
		t.Error("material names wrong")
	}
	if Material(42).String() != "material(42)" {
		t.Errorf("unknown material = %q", Material(42).String())
	}
}

func TestAtAccessor(t *testing.T) {
	c := DefaultCase()
	res := solve(t, c, nil)
	if got := res.At(0, 0); got != c.InletTemp {
		t.Errorf("inlet cell = %v, want %v", got, c.InletTemp)
	}
}
