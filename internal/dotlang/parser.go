package dotlang

import (
	"fmt"
	"os"
	"strconv"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/thermo"
	"github.com/darklab/mercury/internal/units"
)

// File is the result of parsing a model description: the machines in
// declaration order and, optionally, one cluster tying them together.
type File struct {
	Machines []*model.Machine
	Cluster  *model.Cluster // nil when the file has no cluster block
}

// Parse parses a complete model description and validates every
// machine (and the cluster, if present).
func Parse(src string) (*File, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	f := &File{}
	for p.peek().kind != tokEOF {
		switch {
		case p.peek().kind == tokIdent && p.peek().text == "machine":
			m, err := p.parseMachine(f)
			if err != nil {
				return nil, err
			}
			if f.machine(m.Name) != nil {
				return nil, p.errorf("duplicate machine %q", m.Name)
			}
			f.Machines = append(f.Machines, m)
		case p.peek().kind == tokIdent && p.peek().text == "cluster":
			if f.Cluster != nil {
				return nil, p.errorf("multiple cluster blocks")
			}
			c, err := p.parseCluster(f)
			if err != nil {
				return nil, err
			}
			f.Cluster = c
		default:
			return nil, p.errorf("expected 'machine' or 'cluster', got %s", p.describe(p.peek()))
		}
	}
	for _, m := range f.Machines {
		if err := m.Validate(); err != nil {
			return nil, err
		}
	}
	if f.Cluster != nil {
		if err := f.Cluster.Validate(); err != nil {
			return nil, err
		}
	}
	if len(f.Machines) == 0 {
		return nil, fmt.Errorf("dotlang: no machines defined")
	}
	return f, nil
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

// LoadRoom reads a model file as a room: its cluster block, or its
// one machine in model.SingleRoom. A file of several machines and no
// cluster block is ambiguous and refused.
func LoadRoom(path string) (*model.Cluster, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := Parse(string(src))
	if err != nil {
		return nil, err
	}
	switch {
	case f.Cluster != nil:
		return f.Cluster, nil
	case len(f.Machines) == 1:
		return model.SingleRoom(f.Machines[0]), nil
	}
	return nil, fmt.Errorf("dotlang: model %s has %d machines but no cluster block", path, len(f.Machines))
}

func (f *File) machine(name string) *model.Machine {
	for _, m := range f.Machines {
		if m.Name == name {
			return m
		}
	}
	return nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token  { return p.toks[p.pos] }
func (p *parser) peek2() token { return p.toks[min(p.pos+1, len(p.toks)-1)] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) describe(t token) string {
	if t.kind == tokIdent || t.kind == tokNumber {
		return fmt.Sprintf("%s %q", t.kind, t.text)
	}
	return t.kind.String()
}

func (p *parser) errorf(format string, args ...interface{}) error {
	t := p.peek()
	return &SyntaxError{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(k tokenKind) (token, error) {
	if p.peek().kind != k {
		return token{}, p.errorf("expected %s, got %s", k, p.describe(p.peek()))
	}
	return p.advance(), nil
}

func (p *parser) expectKeyword(kw string) error {
	t, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if t.text != kw {
		return &SyntaxError{Line: t.line, Col: t.col, Msg: fmt.Sprintf("expected %q, got %q", kw, t.text)}
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t, err := p.expect(tokIdent)
	if err != nil {
		return "", err
	}
	return t.text, nil
}

func (p *parser) number() (float64, error) {
	t, err := p.expect(tokNumber)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, &SyntaxError{Line: t.line, Col: t.col, Msg: fmt.Sprintf("bad number %q", t.text)}
	}
	return v, nil
}

// parseMachine handles either a full machine block or a clone:
//
//	machine NAME { ... }
//	machine NAME clone OTHER;
func (p *parser) parseMachine(f *File) (*model.Machine, error) {
	if err := p.expectKeyword("machine"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokIdent && p.peek().text == "clone" {
		p.advance()
		src, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		orig := f.machine(src)
		if orig == nil {
			return nil, p.errorf("clone of undefined machine %q", src)
		}
		return orig.Clone(name), nil
	}

	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	m := &model.Machine{Name: name}
	for p.peek().kind != tokRBrace {
		t := p.peek()
		if t.kind != tokIdent {
			return nil, p.errorf("expected a machine statement, got %s", p.describe(t))
		}
		switch {
		case t.text == "component":
			c, err := p.parseComponent()
			if err != nil {
				return nil, err
			}
			m.Components = append(m.Components, *c)
		case t.text == "air":
			a, err := p.parseAir()
			if err != nil {
				return nil, err
			}
			m.AirNodes = append(m.AirNodes, *a)
		case t.text == "inlet_temp" && p.peek2().kind == tokEquals:
			p.advance()
			p.advance()
			v, err := p.number()
			if err != nil {
				return nil, err
			}
			m.InletTemp = units.Celsius(v)
			if _, err := p.expect(tokSemi); err != nil {
				return nil, err
			}
		case t.text == "fan_flow" && p.peek2().kind == tokEquals:
			p.advance()
			p.advance()
			v, err := p.number()
			if err != nil {
				return nil, err
			}
			m.FanFlow = units.CubicFeetPerMinute(v)
			if _, err := p.expect(tokSemi); err != nil {
				return nil, err
			}
		default:
			// An edge statement: NAME -- NAME [k=..]; or NAME -> NAME [fraction=..];
			if err := p.parseMachineEdge(m); err != nil {
				return nil, err
			}
		}
	}
	if _, err := p.expect(tokRBrace); err != nil {
		return nil, err
	}
	return m, nil
}

func (p *parser) parseComponent() (*model.Component, error) {
	if err := p.expectKeyword("component"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	c := &model.Component{Name: name}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	for p.peek().kind != tokRBrace {
		key, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokEquals); err != nil {
			return nil, err
		}
		switch key {
		case "mass":
			v, err := p.number()
			if err != nil {
				return nil, err
			}
			c.Mass = units.Kilograms(v)
		case "specific_heat":
			v, err := p.number()
			if err != nil {
				return nil, err
			}
			c.SpecificHeat = units.JoulesPerKgK(v)
		case "power":
			pm, err := p.parsePowerModel()
			if err != nil {
				return nil, err
			}
			c.Power = pm
		case "util":
			src, err := p.ident()
			if err != nil {
				return nil, err
			}
			// monitord produces cpu/disk/net, but custom streams (e.g.
			// per-core cpu0..cpuN of a CMP model) are legal: any stream
			// fed to the solver by name works.
			c.Util = model.UtilSource(src)
		default:
			return nil, p.errorf("unknown component property %q", key)
		}
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokRBrace); err != nil {
		return nil, err
	}
	return c, nil
}

// parsePowerModel parses linear(base, max), constant(w) or
// piecewise(u:w, u:w, ...).
func (p *parser) parsePowerModel() (thermo.PowerModel, error) {
	kind, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	switch kind {
	case "linear":
		base, err := p.number()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokComma); err != nil {
			return nil, err
		}
		max, err := p.number()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		lm, err := thermo.NewLinear(units.Watts(base), units.Watts(max))
		if err != nil {
			return nil, p.errorf("%v", err)
		}
		return lm, nil
	case "constant":
		w, err := p.number()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return thermo.Constant(w), nil
	case "piecewise":
		var us []units.Fraction
		var ws []units.Watts
		for {
			u, err := p.number()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokColon); err != nil {
				return nil, err
			}
			w, err := p.number()
			if err != nil {
				return nil, err
			}
			us = append(us, units.Fraction(u))
			ws = append(ws, units.Watts(w))
			if p.peek().kind == tokComma {
				p.advance()
				continue
			}
			break
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		pw, err := thermo.NewPiecewise(us, ws)
		if err != nil {
			return nil, p.errorf("%v", err)
		}
		return pw, nil
	default:
		return nil, p.errorf("unknown power model %q", kind)
	}
}

func (p *parser) parseAir() (*model.AirNode, error) {
	if err := p.expectKeyword("air"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	a := &model.AirNode{Name: name}
	if p.peek().kind == tokSemi {
		p.advance()
		return a, nil
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	for p.peek().kind != tokRBrace {
		flag, err := p.ident()
		if err != nil {
			return nil, err
		}
		switch flag {
		case "inlet":
			a.Inlet = true
		case "exhaust":
			a.Exhaust = true
		default:
			return nil, p.errorf("unknown air flag %q", flag)
		}
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokRBrace); err != nil {
		return nil, err
	}
	return a, nil
}

func (p *parser) parseMachineEdge(m *model.Machine) error {
	from, err := p.ident()
	if err != nil {
		return err
	}
	op := p.peek()
	if op.kind != tokArrow && op.kind != tokUndirect {
		return p.errorf("expected '->' or '--' after %q, got %s", from, p.describe(op))
	}
	p.advance()
	to, err := p.ident()
	if err != nil {
		return err
	}
	attrs, err := p.parseAttrs()
	if err != nil {
		return err
	}
	if _, err := p.expect(tokSemi); err != nil {
		return err
	}
	switch op.kind {
	case tokUndirect:
		k, ok := attrs["k"]
		if !ok {
			return &SyntaxError{Line: op.line, Col: op.col,
				Msg: fmt.Sprintf("heat edge %s--%s needs a k attribute", from, to)}
		}
		m.HeatEdges = append(m.HeatEdges, model.HeatEdge{A: from, B: to, K: units.WattsPerKelvin(k)})
	case tokArrow:
		f, ok := attrs["fraction"]
		if !ok {
			return &SyntaxError{Line: op.line, Col: op.col,
				Msg: fmt.Sprintf("air edge %s->%s needs a fraction attribute", from, to)}
		}
		m.AirEdges = append(m.AirEdges, model.AirEdge{From: from, To: to, Fraction: units.Fraction(f)})
	}
	return nil
}

// parseAttrs parses an optional [key=value, key=value] list.
func (p *parser) parseAttrs() (map[string]float64, error) {
	attrs := map[string]float64{}
	if p.peek().kind != tokLBracket {
		return attrs, nil
	}
	p.advance()
	for p.peek().kind != tokRBracket {
		key, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokEquals); err != nil {
			return nil, err
		}
		v, err := p.number()
		if err != nil {
			return nil, err
		}
		attrs[key] = v
		if p.peek().kind == tokComma {
			p.advance()
		}
	}
	p.advance() // ]
	return attrs, nil
}

func (p *parser) parseCluster(f *File) (*model.Cluster, error) {
	if err := p.expectKeyword("cluster"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	c := &model.Cluster{Name: name}
	for p.peek().kind != tokRBrace {
		t := p.peek()
		if t.kind != tokIdent {
			return nil, p.errorf("expected a cluster statement, got %s", p.describe(t))
		}
		switch t.text {
		case "source":
			p.advance()
			sname, err := p.ident()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokLBrace); err != nil {
				return nil, err
			}
			if err := p.expectKeyword("supply"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokEquals); err != nil {
				return nil, err
			}
			v, err := p.number()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSemi); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRBrace); err != nil {
				return nil, err
			}
			c.Sources = append(c.Sources, model.ClusterSource{Name: sname, SupplyTemp: units.Celsius(v)})
		case "sink":
			p.advance()
			sname, err := p.ident()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSemi); err != nil {
				return nil, err
			}
			c.Sinks = append(c.Sinks, model.ClusterSink{Name: sname})
		case "members":
			p.advance()
			for {
				mname, err := p.ident()
				if err != nil {
					return nil, err
				}
				mm := f.machine(mname)
				if mm == nil {
					return nil, p.errorf("cluster member %q is not a defined machine", mname)
				}
				c.Machines = append(c.Machines, mm)
				if p.peek().kind == tokComma {
					p.advance()
					continue
				}
				break
			}
			if _, err := p.expect(tokSemi); err != nil {
				return nil, err
			}
		default:
			// Edge: NAME -> NAME [fraction=..];
			from, err := p.ident()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokArrow); err != nil {
				return nil, err
			}
			to, err := p.ident()
			if err != nil {
				return nil, err
			}
			attrs, err := p.parseAttrs()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSemi); err != nil {
				return nil, err
			}
			fr, ok := attrs["fraction"]
			if !ok {
				return nil, p.errorf("cluster edge %s->%s needs a fraction attribute", from, to)
			}
			c.Edges = append(c.Edges, model.ClusterEdge{From: from, To: to, Fraction: units.Fraction(fr)})
		}
	}
	if _, err := p.expect(tokRBrace); err != nil {
		return nil, err
	}
	return c, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
