package solver

import (
	"fmt"
	"math"
	"time"

	"github.com/darklab/mercury/internal/units"
)

// LastStepDelta returns the largest absolute single-step temperature
// change of any node in the cluster during the most recent step (0
// before the first step). The per-shard maxima computed by the
// parallel stepping phases reduce to this value, so it is identical
// for every worker count.
func (s *Solver) LastStepDelta() units.Celsius {
	s.mu.Lock()
	defer s.mu.Unlock()
	return units.Celsius(s.lastDelta)
}

// RunUntilSteady steps the emulation until the largest single-step
// temperature change anywhere in the cluster is at most tol, or until
// maxDur of emulated time has elapsed, whichever comes first. It
// returns the emulated time advanced and whether the tolerance was
// reached. Unlike the analytic SteadyState it handles whole rooms with
// recirculation, and it detects convergence by aggregating the
// per-shard deltas the parallel stepping phases already track, so it
// costs nothing extra per step.
func (s *Solver) RunUntilSteady(tol units.Celsius, maxDur time.Duration) (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tol <= 0 {
		tol = 1e-6
	}
	start := s.now
	deadline := s.now + maxDur
	for s.now < deadline {
		s.stepN(1)
		if s.lastDelta <= float64(tol) {
			return s.now - start, true
		}
	}
	return s.now - start, false
}

// SteadyState returns the machine's steady-state temperatures under
// its current utilizations, fan flow, pins, and power state, without
// advancing emulated time. The steady state is the fixed point of the
// per-step update equations, which is linear in the node temperatures:
//
//	components:  sum_j k_ij (T_j - T_i) + P_i = 0
//	air regions: T_a = mix(upstream) + sum_j k_aj (T_j - T_a) / F_a
//	inlet:       T = effective inlet temperature
//
// where F_a is the heat capacity flow (rho * c * volumetric flow)
// through region a. The small dense system is solved by Gaussian
// elimination with partial pivoting. Fluent-style steady-state
// comparisons (Section 3.2) and calibration sweeps use this instead of
// stepping through hours of emulated time.
//
// SteadyState requires the machine's room inputs to be fixed: it uses
// the machine's current effective inlet temperature, so in clusters
// with recirculation it reflects the present upstream exhausts, not a
// whole-room fixed point.
func (s *Solver) SteadyState(machine string) (map[string]units.Celsius, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mi, err := s.machine(machine)
	if err != nil {
		return nil, err
	}
	m := &s.ms[mi]
	sh := m.shape

	n := len(sh.names)
	// A x = b, row-major in a flat buffer reused (under the solver
	// lock) across calls — calibration sweeps call SteadyState in
	// tight loops, and the fresh matrix-of-rows allocation dominated.
	if cap(s.steadyA) < n*n {
		s.steadyA = make([]float64, n*n)
		s.steadyB = make([]float64, n)
		s.steadyX = make([]float64, n)
	}
	A := s.steadyA[:n*n]
	for i := range A {
		A[i] = 0
	}
	b := s.steadyB[:n]
	for i := range b {
		b[i] = 0
	}

	inlet := s.mixInlet(mi)
	set := m.set

	// Heat-edge coupling contributes to both component and air rows.
	type coupling struct {
		j int32
		k float64
	}
	couplings := make([][]coupling, n)
	for i, k := range set.heatK {
		e := sh.heatEdges[i]
		couplings[e.a] = append(couplings[e.a], coupling{j: e.b, k: k})
		couplings[e.b] = append(couplings[e.b], coupling{j: e.a, k: k})
	}

	isComp := make([]bool, n)
	power := make([]float64, n)
	scales := s.scalesOf(mi)
	utils := s.utilsOf(mi)
	for i, node := range sh.compNode {
		isComp[node] = true
		if pm := set.models[i]; m.on && pm != nil {
			var u units.Fraction // 0 for UtilNone
			if ui := sh.compUtil[i]; ui >= 0 {
				u = units.Fraction(utils[ui])
			}
			power[node] = float64(pm.Power(u)) * scales[i]
		}
	}

	rel, frac := set.relFlow, set.airFrac
	for i := 0; i < n; i++ {
		row := A[i*n : (i+1)*n : (i+1)*n]
		switch {
		case isComp[i]:
			// sum_j k (T_j - T_i) + P = 0
			for _, cpl := range couplings[i] {
				row[i] += cpl.k
				row[cpl.j] -= cpl.k
			}
			b[i] = power[i]
			if len(couplings[i]) == 0 {
				// An isolated component never sheds heat; its steady
				// temperature is undefined unless it draws no power.
				if power[i] != 0 {
					return nil, fmt.Errorf("solver: component %q has power but no heat edges", sh.names[i])
				}
				row[i] = 1
				b[i] = inlet
			}
		case i == sh.inletIdx:
			row[i] = 1
			b[i] = inlet
		default:
			// Air region: T_a - mix - sum k (T_j - T_a)/F = 0.
			var wsum float64
			for p := sh.airInOff[i]; p < sh.airInOff[i+1]; p++ {
				wsum += float64(frac[sh.flowEdge[p]] * rel[sh.flowFrom[p]])
			}
			row[i] = 1
			if wsum > 0 {
				for p := sh.airInOff[i]; p < sh.airInOff[i+1]; p++ {
					row[sh.flowFrom[p]] -= frac[sh.flowEdge[p]] * rel[sh.flowFrom[p]] / wsum
				}
			}
			F := units.AirDensity * rel[i] * set.fan * float64(units.AirSpecificHeat)
			if F > 0 {
				for _, cpl := range couplings[i] {
					row[i] += cpl.k / F
					row[cpl.j] -= cpl.k / F
				}
			}
			b[i] = 0
			if wsum == 0 && len(couplings[i]) == 0 {
				// Stagnant, uncoupled region: pin to inlet.
				b[i] = inlet
			}
		}
	}

	x := s.steadyX[:n]
	if err := solveLinear(A, b, x, n); err != nil {
		return nil, fmt.Errorf("solver: steady state of %s: %w", machine, err)
	}
	out := make(map[string]units.Celsius, n)
	for i, name := range sh.names {
		out[name] = units.Celsius(x[i])
	}
	return out, nil
}

// solveLinear performs in-place Gaussian elimination with partial
// pivoting on the dense n×n system A x = b, where A is row-major in a
// flat buffer and the solution is written into x. It allocates
// nothing, so SteadyState can reuse one set of scratch buffers across
// calls.
func solveLinear(A, b, x []float64, n int) error {
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		best := math.Abs(A[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(A[r*n+col]); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-12 {
			return fmt.Errorf("singular system at column %d", col)
		}
		if pivot != col {
			pr, cr := A[pivot*n:(pivot+1)*n], A[col*n:(col+1)*n]
			for c := range cr {
				cr[c], pr[c] = pr[c], cr[c]
			}
			b[col], b[pivot] = b[pivot], b[col]
		}
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := A[r*n+col] / A[col*n+col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				A[r*n+c] -= float64(f * A[col*n+c])
			}
			b[r] -= float64(f * b[col])
		}
	}
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= float64(A[r*n+c] * x[c])
		}
		x[r] = sum / A[r*n+r]
	}
	return nil
}
