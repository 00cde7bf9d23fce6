package surrogate

import (
	"fmt"
	"math"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/units"
)

// Query is one what-if question: a set of hypothetical changes applied
// to the solver's current state, answered at steady state. The JSON
// form is the POST /whatif request body (minus the fallback knob).
type Query struct {
	// PowerOff / PowerOn switch machines hypothetically.
	PowerOff []string `json:"power_off,omitempty"`
	PowerOn  []string `json:"power_on,omitempty"`
	// SetUtil overrides utilization streams.
	SetUtil []UtilChange `json:"set_util,omitempty"`
	// PinInlet / UnpinInlet override machine inlet temperatures.
	PinInlet   []InletPin `json:"pin_inlet,omitempty"`
	UnpinInlet []string   `json:"unpin_inlet,omitempty"`
	// SetSource overrides room-level source supply temperatures (e.g.
	// the AC setpoint).
	SetSource []SourceChange `json:"set_source,omitempty"`
	// ReturnTemps asks for the full per-node temperature map, not just
	// the cluster maximum.
	ReturnTemps bool `json:"return_temps,omitempty"`
}

// UtilChange overrides one utilization stream.
type UtilChange struct {
	Machine string           `json:"machine"`
	Source  model.UtilSource `json:"source"`
	Value   float64          `json:"value"`
}

// InletPin overrides one machine's inlet temperature.
type InletPin struct {
	Machine string  `json:"machine"`
	TempC   float64 `json:"temp_c"`
}

// SourceChange overrides one source's supply temperature.
type SourceChange struct {
	Source string  `json:"source"`
	TempC  float64 `json:"temp_c"`
}

// Answer is a what-if result. Source records which engine produced it:
// "surrogate" (microseconds) or "kernel" (the real solver stepped to
// steady state and rewound). A declined surrogate query with no
// fallback returns Valid=false and the decline reason.
type Answer struct {
	Valid      bool    `json:"valid"`
	Reason     string  `json:"reason,omitempty"`
	Source     string  `json:"source"`
	Iterations int     `json:"iterations,omitempty"`
	MaxTemp    float64 `json:"max_temp_c"`
	MaxMachine string  `json:"max_machine,omitempty"`
	MaxNode    string  `json:"max_node,omitempty"`

	Temps map[string]map[string]float64 `json:"temps,omitempty"`
}

// queryScratch is the pooled per-query working set: the current solver
// scenario inputs (ReadInputs layout — node temperatures are never
// read on the query path) plus pin/source/exhaust/inlet vectors.
type queryScratch struct {
	row  []float64
	pins []float64
	srcs []float64
	ex   []float64
	in   []float64
}

func (m *Model) newQueryScratch() *queryScratch {
	return &queryScratch{
		row:  make([]float64, m.inLen),
		pins: make([]float64, len(m.layout)),
		srcs: make([]float64, len(m.srcNames)),
		ex:   make([]float64, len(m.layout)),
		in:   make([]float64, len(m.layout)),
	}
}

// Predict answers q from the fitted surrogate alone. A query that
// references unknown machines, nodes, streams, or sources returns an
// error wrapping *solver.ErrUnknown; a query the model cannot answer
// confidently (no fit, stale generation, outside the fitted envelope,
// an involved machine without a usable fit) returns Valid=false with
// the reason and no error.
func (m *Model) Predict(q *Query) (*Answer, error) {
	m.queries.Add(1)
	ans := &Answer{Source: "surrogate"}

	fit := m.fit.Load()
	if fit == nil {
		return m.decline(ans, "no fit yet"), nil
	}

	sc := m.qpool.Get().(*queryScratch)
	defer m.qpool.Put(sc)
	if _, gen := m.sol.ReadInputs(sc.row); gen != fit.gen {
		return m.decline(ans, "solver dynamics changed since fit (stale generation)"), nil
	}
	m.sol.ReadPins(sc.pins)
	m.sol.ReadSources(sc.srcs)

	// Apply the hypothetical changes to the scratch inputs, validating
	// every name first so bad requests fail loudly instead of
	// declining quietly.
	for _, name := range q.PowerOff {
		mi, ok := m.midx[name]
		if !ok {
			return nil, &solver.ErrUnknown{Kind: "machine", Name: name}
		}
		sc.row[m.ioffs[mi]] = 0
	}
	for _, name := range q.PowerOn {
		mi, ok := m.midx[name]
		if !ok {
			return nil, &solver.ErrUnknown{Kind: "machine", Name: name}
		}
		sc.row[m.ioffs[mi]] = 1
	}
	for _, uc := range q.SetUtil {
		mi, ok := m.midx[uc.Machine]
		if !ok {
			return nil, &solver.ErrUnknown{Kind: "machine", Name: uc.Machine}
		}
		ui, ok := m.machineUtil(mi, uc.Source)
		if !ok {
			return nil, &solver.ErrUnknown{Kind: "utilization source", Name: uc.Machine + "/" + string(uc.Source)}
		}
		if !units.Fraction(uc.Value).Valid() {
			return nil, fmt.Errorf("surrogate: utilization %v for %s/%s outside [0,1]", uc.Value, uc.Machine, uc.Source)
		}
		sc.row[m.ioffs[mi]+2+ui] = uc.Value
	}
	for _, pin := range q.PinInlet {
		mi, ok := m.midx[pin.Machine]
		if !ok {
			return nil, &solver.ErrUnknown{Kind: "machine", Name: pin.Machine}
		}
		if !units.Celsius(pin.TempC).Valid() {
			return nil, fmt.Errorf("surrogate: invalid pin temperature %v for %s", pin.TempC, pin.Machine)
		}
		sc.pins[mi] = pin.TempC
	}
	for _, name := range q.UnpinInlet {
		mi, ok := m.midx[name]
		if !ok {
			return nil, &solver.ErrUnknown{Kind: "machine", Name: name}
		}
		sc.pins[mi] = math.NaN()
	}
	for _, sch := range q.SetSource {
		si, ok := m.sidx[sch.Source]
		if !ok {
			return nil, &solver.ErrUnknown{Kind: "source", Name: sch.Source}
		}
		if !units.Celsius(sch.TempC).Valid() {
			return nil, fmt.Errorf("surrogate: invalid source temperature %v for %s", sch.TempC, sch.Source)
		}
		sc.srcs[si] = sch.TempC
	}

	// Every machine that is on in the scenario needs a usable fit;
	// off machines settle exactly at their inlet temperature.
	for mi := range m.layout {
		if sc.row[m.ioffs[mi]] == 1 && !fit.machines[mi].ok {
			return m.decline(ans, "machine "+m.layout[mi].Name+" has no usable fit: "+fit.machines[mi].reason), nil
		}
	}

	// Room inlet mixes. Feed-forward rooms (no machine's inlet mixes
	// another machine's exhaust) resolve in one pass over sources and
	// pins; otherwise Gauss-Seidel iterate the exhaust/inlet fixed
	// point in layout order — recirculating rooms contract through the
	// sub-unity recirculation fractions.
	if m.feedForward {
		for mi := range m.layout {
			sc.in[mi] = m.mixInlet(sc, mi)
		}
		ans.Iterations = 1
	} else {
		for mi := range m.layout {
			sc.ex[mi] = sc.row[m.ioffs[mi]+2+len(m.layout[mi].Utils)]
		}
		converged := false
		iters := 0
		for it := 0; it < maxIter; it++ {
			iters++
			var worst float64
			for mi := range m.layout {
				inlet := m.mixInlet(sc, mi)
				sc.in[mi] = inlet
				var ex float64
				if sc.row[m.ioffs[mi]] == 0 {
					ex = inlet
				} else {
					mf := &fit.machines[mi]
					ex = mf.exGain[0] + float64(mf.exGain[1]*inlet)
					k := len(m.layout[mi].Utils)
					uoff := m.ioffs[mi] + 2
					for j := 0; j < k; j++ {
						ex += float64(mf.exGain[2+j] * sc.row[uoff+j])
					}
				}
				if d := math.Abs(ex - sc.ex[mi]); d > worst {
					worst = d
				}
				sc.ex[mi] = ex
			}
			if worst < 1e-10 {
				converged = true
				break
			}
		}
		ans.Iterations = iters
		if !converged {
			return m.decline(ans, "room exhaust mix did not reach a fixed point"), nil
		}
	}

	// Envelope guard on the scenario's final inputs.
	for mi := range m.layout {
		if sc.row[m.ioffs[mi]] == 0 {
			continue
		}
		mf := &fit.machines[mi]
		if sc.in[mi] < mf.envLo[0] || sc.in[mi] > mf.envHi[0] {
			return m.decline(ans, fmt.Sprintf("inlet %.2f°C for %s outside fitted envelope [%.2f, %.2f]",
				sc.in[mi], m.layout[mi].Name, mf.envLo[0], mf.envHi[0])), nil
		}
		k := len(m.layout[mi].Utils)
		uoff := m.ioffs[mi] + 2
		for j := 0; j < k; j++ {
			if v := sc.row[uoff+j]; v < mf.envLo[1+j] || v > mf.envHi[1+j] {
				return m.decline(ans, fmt.Sprintf("utilization %.2f for %s/%s outside fitted envelope [%.2f, %.2f]",
					v, m.layout[mi].Name, m.layout[mi].Utils[j], mf.envLo[1+j], mf.envHi[1+j])), nil
			}
		}
	}

	// Final pass: steady temperatures per machine, max tracked in
	// layout order (deterministic tie-break).
	best := math.Inf(-1)
	var bestM, bestN string
	if q.ReturnTemps {
		ans.Temps = make(map[string]map[string]float64, len(m.layout))
	}
	for mi := range m.layout {
		l := &m.layout[mi]
		n := len(l.Nodes)
		k := len(l.Utils)
		var temps map[string]float64
		if q.ReturnTemps {
			temps = make(map[string]float64, n)
			ans.Temps[l.Name] = temps
		}
		if sc.row[m.ioffs[mi]] == 0 {
			t := sc.in[mi]
			if t > best {
				best, bestM, bestN = t, l.Name, l.Nodes[0]
			}
			if temps != nil {
				for _, name := range l.Nodes {
					temps[name] = t
				}
			}
			continue
		}
		mf := &fit.machines[mi]
		p := 2 + k
		in := sc.in[mi]
		uoff := m.ioffs[mi] + 2
		M := mf.M
		for c, off := 0, 0; c < n; c, off = c+1, off+p {
			t := M[off] + float64(M[off+1]*in)
			for j := 0; j < k; j++ {
				t += float64(M[off+2+j] * sc.row[uoff+j])
			}
			if t > best {
				best, bestM, bestN = t, l.Name, l.Nodes[c]
			}
			if temps != nil {
				temps[l.Nodes[c]] = t
			}
		}
	}
	ans.Valid = true
	ans.MaxTemp = best
	ans.MaxMachine = bestM
	ans.MaxNode = bestN
	return ans, nil
}

// mixInlet mirrors the solver's inlet mix over the scenario's source
// and exhaust values: pin wins, else the fraction-weighted feed mix,
// else the machine's current inlet (isolated machine).
func (m *Model) mixInlet(sc *queryScratch, mi int) float64 {
	if !math.IsNaN(sc.pins[mi]) {
		return sc.pins[mi]
	}
	var wsum, tsum float64
	for _, e := range m.edges[mi] {
		var t float64
		if e.src {
			t = sc.srcs[e.ref]
		} else {
			t = sc.ex[e.ref]
		}
		wsum += e.frac
		tsum += float64(e.frac * t)
	}
	if wsum == 0 {
		return sc.row[m.ioffs[mi]+1]
	}
	return tsum / wsum
}

func (m *Model) decline(ans *Answer, reason string) *Answer {
	m.declines.Add(1)
	ans.Valid = false
	ans.Reason = reason
	return ans
}

// WhatIf answers q from the surrogate, optionally falling back to the
// real kernel when the surrogate declines. The kernel path mutates and
// rewinds the solver (solver.WhatIf), so daemons must serialize it
// against their stepping loop.
func (m *Model) WhatIf(q *Query, kernelFallback bool) (*Answer, error) {
	ans, err := m.Predict(q)
	if err != nil {
		return nil, err
	}
	if ans.Valid || !kernelFallback {
		return ans, nil
	}
	m.fallbacks.Add(1)
	kans, err := KernelWhatIf(m.sol, q, kernelTol, kernelHorizon)
	if err != nil {
		return nil, err
	}
	// Keep the decline reason so callers can see why the slow path ran.
	kans.Reason = ans.Reason
	return kans, nil
}

// KernelWhatIf answers q with the real solver: snapshot, apply the
// changes through the ordinary fiddle surface, step to steady state,
// read the temperatures, and rewind everything (solver.WhatIf
// guarantees the round trip leaves state and model generation
// untouched). tol/maxDur bound RunUntilSteady. This is the surrogate's
// fallback and its ground truth in validation tests.
func KernelWhatIf(sol *solver.Solver, q *Query, tol units.Celsius, maxDur time.Duration) (*Answer, error) {
	ans := &Answer{Source: "kernel", Valid: true}
	err := sol.WhatIf(func(s *solver.Solver) error {
		if err := applyQuery(s, q); err != nil {
			return err
		}
		if _, steady := s.RunUntilSteady(tol, maxDur); !steady {
			ans.Reason = "kernel: not fully steady within horizon"
		}
		t, mach, node := s.MaxComponentTemp()
		ans.MaxTemp, ans.MaxMachine, ans.MaxNode = float64(t), mach, node
		if q.ReturnTemps {
			ans.Temps = make(map[string]map[string]float64)
			for machine, temps := range s.Snapshot() {
				mt := make(map[string]float64, len(temps))
				for node, v := range temps {
					mt[node] = float64(v)
				}
				ans.Temps[machine] = mt
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ans, nil
}

// applyQuery replays a Query onto the live solver through the public
// fiddle surface, in a fixed field order so kernel answers are
// deterministic.
func applyQuery(s *solver.Solver, q *Query) error {
	for _, name := range q.PowerOff {
		if err := s.SetMachinePower(name, false); err != nil {
			return err
		}
	}
	for _, name := range q.PowerOn {
		if err := s.SetMachinePower(name, true); err != nil {
			return err
		}
	}
	for _, uc := range q.SetUtil {
		if !units.Fraction(uc.Value).Valid() {
			return fmt.Errorf("surrogate: utilization %v for %s/%s outside [0,1]", uc.Value, uc.Machine, uc.Source)
		}
		if err := s.SetUtilization(uc.Machine, uc.Source, units.Fraction(uc.Value)); err != nil {
			return err
		}
	}
	for _, pin := range q.PinInlet {
		if err := s.PinInlet(pin.Machine, units.Celsius(pin.TempC)); err != nil {
			return err
		}
	}
	for _, name := range q.UnpinInlet {
		if err := s.UnpinInlet(name); err != nil {
			return err
		}
	}
	for _, sch := range q.SetSource {
		if err := s.SetSourceTemperature(sch.Source, units.Celsius(sch.TempC)); err != nil {
			return err
		}
	}
	return nil
}
