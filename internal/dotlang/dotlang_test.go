package dotlang

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/thermo"
)

const miniMachine = `
# A minimal two-node machine.
machine mini {
    inlet_temp = 21.6;
    fan_flow = 38.6;

    component cpu {
        mass = 0.151;
        specific_heat = 896;
        power = linear(7, 31);
        util = cpu;
    }

    air inlet { inlet; }
    air cpu_air;
    air exhaust { exhaust; }

    cpu -- cpu_air [k = 0.75];

    inlet -> cpu_air [fraction = 1.0];
    cpu_air -> exhaust [fraction = 1.0];
}
`

func TestParseMiniMachine(t *testing.T) {
	m, err := ParseMachine(miniMachine)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "mini" {
		t.Errorf("name = %q", m.Name)
	}
	if m.InletTemp != 21.6 || m.FanFlow != 38.6 {
		t.Errorf("inlet/fan = %v/%v", m.InletTemp, m.FanFlow)
	}
	cpu := m.Component("cpu")
	if cpu == nil {
		t.Fatal("no cpu component")
	}
	if cpu.Mass != 0.151 || cpu.SpecificHeat != 896 {
		t.Errorf("cpu mass/c = %v/%v", cpu.Mass, cpu.SpecificHeat)
	}
	if cpu.Power.Base() != 7 || cpu.Power.Max() != 31 {
		t.Errorf("cpu power = %v..%v", cpu.Power.Base(), cpu.Power.Max())
	}
	if cpu.Util != model.UtilCPU {
		t.Errorf("cpu util = %q", cpu.Util)
	}
	if len(m.HeatEdges) != 1 || m.HeatEdges[0].K != 0.75 {
		t.Errorf("heat edges = %+v", m.HeatEdges)
	}
	if len(m.AirEdges) != 2 {
		t.Errorf("air edges = %+v", m.AirEdges)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("parsed machine invalid: %v", err)
	}
}

func TestRoundTripDefaultServer(t *testing.T) {
	orig := model.DefaultServer("machine1")
	src := PrintMachine(orig)
	parsed, err := ParseMachine(src)
	if err != nil {
		t.Fatalf("reparse failed: %v\nsource:\n%s", err, src)
	}
	if !reflect.DeepEqual(orig, parsed) {
		t.Errorf("round trip changed the machine\noriginal: %+v\nparsed: %+v", orig, parsed)
	}
}

func TestRoundTripDefaultCluster(t *testing.T) {
	orig, err := model.DefaultCluster("room", 4)
	if err != nil {
		t.Fatal(err)
	}
	src := PrintCluster(orig)
	parsed, err := ParseCluster(src)
	if err != nil {
		t.Fatalf("reparse failed: %v\nsource:\n%s", err, src)
	}
	if !reflect.DeepEqual(orig, parsed) {
		t.Error("round trip changed the cluster")
	}
}

func TestCloneStatement(t *testing.T) {
	src := miniMachine + "\nmachine mini2 clone mini;\n"
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Machines) != 2 {
		t.Fatalf("machines = %d", len(f.Machines))
	}
	if f.Machines[1].Name != "mini2" {
		t.Errorf("clone name = %q", f.Machines[1].Name)
	}
	if len(f.Machines[1].Components) != len(f.Machines[0].Components) {
		t.Error("clone lost components")
	}
	if _, err := Parse(miniMachine + "\nmachine m2 clone ghost;\n"); err == nil {
		t.Error("clone of undefined machine: want error")
	}
}

func TestParseClusterBlock(t *testing.T) {
	src := miniMachine + `
machine mini2 clone mini;

cluster room {
    source ac { supply = 21.6; }
    sink cluster_exhaust;
    members mini, mini2;
    ac -> mini [fraction = 0.5];
    ac -> mini2 [fraction = 0.5];
    mini -> cluster_exhaust [fraction = 1.0];
    mini2 -> cluster_exhaust [fraction = 1.0];
}
`
	c, err := ParseCluster(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "room" {
		t.Errorf("cluster name = %q", c.Name)
	}
	if len(c.Machines) != 2 || len(c.Edges) != 4 {
		t.Errorf("machines=%d edges=%d", len(c.Machines), len(c.Edges))
	}
	if c.Sources[0].SupplyTemp != 21.6 {
		t.Errorf("supply = %v", c.Sources[0].SupplyTemp)
	}
}

func TestParsePiecewiseAndConstant(t *testing.T) {
	src := `
machine m {
    inlet_temp = 20;
    fan_flow = 38.6;
    component cpu {
        mass = 0.151;
        specific_heat = 896;
        power = piecewise(0:7, 0.5:25, 1:31);
        util = cpu;
    }
    component ps {
        mass = 1.643;
        specific_heat = 896;
        power = constant(40);
    }
    air inlet { inlet; }
    air exhaust { exhaust; }
    inlet -> exhaust [fraction = 1.0];
    cpu -- exhaust [k = 0.75];
}
`
	m, err := ParseMachine(src)
	if err != nil {
		t.Fatal(err)
	}
	pw, ok := m.Component("cpu").Power.(*thermo.Piecewise)
	if !ok {
		t.Fatalf("cpu power type = %T", m.Component("cpu").Power)
	}
	if pw.Power(0.5) != 25 {
		t.Errorf("piecewise P(0.5) = %v", pw.Power(0.5))
	}
	if _, ok := m.Component("ps").Power.(thermo.Constant); !ok {
		t.Fatalf("ps power type = %T", m.Component("ps").Power)
	}
	// Round trip preserves the model types.
	m2, err := ParseMachine(PrintMachine(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, m2) {
		t.Error("piecewise round trip changed the machine")
	}
}

func TestCommentStyles(t *testing.T) {
	src := "// line comment\n/* block\ncomment */\n# hash comment\n" + miniMachine
	if _, err := ParseMachine(src); err != nil {
		t.Fatalf("comments broke parsing: %v", err)
	}
}

func TestSyntaxErrors(t *testing.T) {
	cases := []struct {
		name, src string
		wantSub   string
	}{
		{"empty", "", "no machines"},
		{"garbage", "widget w {}", "expected 'machine' or 'cluster'"},
		{"unterminated comment", "/* nope", "unterminated"},
		{"missing semi", "machine m { inlet_temp = 20 fan_flow = 1; }", "expected"},
		{"bad power model", strings.Replace(miniMachine, "linear(7, 31)", "magic(7)", 1), "unknown power model"},
		{"heat edge no k", strings.Replace(miniMachine, "[k = 0.75]", "", 1), "needs a k"},
		{"air edge no fraction", strings.Replace(miniMachine, "[fraction = 1.0];\n    cpu_air", ";\n    cpu_air", 1), "needs a fraction"},
		{"dup machine", miniMachine + miniMachine, "duplicate machine"},
		{"two clusters", miniMachine + "cluster a { source s { supply = 20; } sink k; members mini; s -> mini [fraction=1]; mini -> k [fraction=1]; }" +
			"cluster b { source s2 { supply = 20; } sink k2; members mini; s2 -> mini [fraction=1]; mini -> k2 [fraction=1]; }", "multiple cluster"},
		{"unknown member", miniMachine + "cluster a { source s { supply=20; } sink k; members ghost; }", "not a defined machine"},
		{"bad number", strings.Replace(miniMachine, "21.6", "21.6.6.6e", 1), ""},
		{"invalid model", strings.Replace(miniMachine, "fan_flow = 38.6", "fan_flow = 0", 1), "fan flow"},
		{"bad char", "machine m @ {}", "unexpected character"},
		{"component prop", strings.Replace(miniMachine, "mass =", "weight =", 1), "unknown component property"},
		{"air flag", strings.Replace(miniMachine, "{ inlet; }", "{ intake; }", 1), "unknown air flag"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("%s: Parse succeeded, want error", tc.name)
			continue
		}
		if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := Parse("machine m {\n    inlet_temp = ;\n}")
	serr, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type = %T (%v)", err, err)
	}
	if serr.Line != 2 {
		t.Errorf("error line = %d, want 2", serr.Line)
	}
}

func TestParseMachineRejectsMultiple(t *testing.T) {
	if _, err := ParseMachine(miniMachine + "machine other clone mini;"); err == nil {
		t.Error("ParseMachine with two machines: want error")
	}
	if _, err := ParseCluster(miniMachine); err == nil {
		t.Error("ParseCluster without cluster: want error")
	}
}

func TestGraphvizOutput(t *testing.T) {
	g := Graphviz(model.DefaultServer("machine1"))
	for _, want := range []string{
		"digraph machine1 {",
		"cpu [shape=box]",
		"cpu_air [shape=ellipse",
		"dir=none, label=\"k=0.75\"",
		"style=dashed, label=\"0.4\"",
	} {
		if !strings.Contains(g, want) {
			t.Errorf("graphviz output missing %q\n%s", want, g)
		}
	}
}

func TestNegativeNumbersParse(t *testing.T) {
	src := strings.Replace(miniMachine, "inlet_temp = 21.6", "inlet_temp = -5.5", 1)
	m, err := ParseMachine(src)
	if err != nil {
		t.Fatal(err)
	}
	if m.InletTemp != -5.5 {
		t.Errorf("inlet = %v, want -5.5", m.InletTemp)
	}
}

func TestScientificNotation(t *testing.T) {
	src := strings.Replace(miniMachine, "mass = 0.151", "mass = 1.51e-1", 1)
	m, err := ParseMachine(src)
	if err != nil {
		t.Fatal(err)
	}
	if m.Component("cpu").Mass != 0.151 {
		t.Errorf("mass = %v", m.Component("cpu").Mass)
	}
}

// ParseMachine parses a description expected to contain exactly one
// machine and no cluster.
func ParseMachine(src string) (*model.Machine, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(f.Machines) != 1 || f.Cluster != nil {
		return nil, fmt.Errorf("dotlang: expected exactly one machine block, got %d machines (cluster: %v)",
			len(f.Machines), f.Cluster != nil)
	}
	return f.Machines[0], nil
}

// ParseCluster parses a description expected to define a cluster.
func ParseCluster(src string) (*model.Cluster, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if f.Cluster == nil {
		return nil, fmt.Errorf("dotlang: no cluster block in input")
	}
	return f.Cluster, nil
}
