package surrogate

import (
	"math"
)

// fitState is one immutable fit result, swapped in atomically.
type fitState struct {
	gen         uint64 // solver model generation the samples describe
	pairsTotal  int
	maxResidual float64
	machines    []machineFit
}

// machineFit is one machine's fitted steady-state response surface.
type machineFit struct {
	ok     bool
	reason string // why !ok
	pairs  int
	resid  float64 // one-step RMS prediction error, °C

	// temps = M · u with u = [1, inlet, utils...] (p = 2 + len(utils)),
	// row-major n×p; exhaust = exGain · u. Precomputed from the one-step
	// fit: M = (I−A)⁻¹B, exhaust collapsed through M.
	M      []float64
	exGain []float64

	// onestep retains the raw one-step regression solution W (q×nout,
	// q = n+2+k regressors [temps, 1, inlet, utils], nout = n+1 outputs
	// [temps, exhaust]): temps(t+1)[c] = Σ_r W[r·nout+c]·z[r]. It is the
	// transient map TimeToThreshold iterates, where M alone only gives
	// the steady-state destination.
	onestep []float64

	// Expanded validity envelope over the inputs [inlet, utils...]
	// (length 1+len(utils) each).
	envLo, envHi []float64
}

// fitScratch holds the buffers one fit pass reuses, guarded by fitMu.
type fitScratch struct {
	data  []float64
	steps []uint64
	gens  []uint64

	G, Gw, R, W []float64
	z           []float64
	IA, B       []float64
}

func ensure(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Fit rebuilds the surrogate from the recorded trajectory and swaps it
// in. It returns the resulting stats. Fit never touches the solver
// beyond reading its model generation, so it is safe to run
// concurrently with stepping, recording, and queries.
func (m *Model) Fit() FitStats {
	m.fitMu.Lock()
	defer m.fitMu.Unlock()
	sc := &m.scratch

	// Snapshot the ring oldest-first so pair scanning is linear. The
	// copy keeps m.mu short: the fit itself runs on the snapshot.
	m.mu.Lock()
	count := m.count
	sc.data = ensure(sc.data, count*m.rowLen)
	if cap(sc.steps) < count {
		sc.steps = make([]uint64, count)
		sc.gens = make([]uint64, count)
	}
	sc.steps = sc.steps[:count]
	sc.gens = sc.gens[:count]
	start := m.head - count
	if start < 0 {
		start += capacity
	}
	for t := 0; t < count; t++ {
		i := start + t
		if i >= capacity {
			i -= capacity
		}
		copy(sc.data[t*m.rowLen:(t+1)*m.rowLen], m.data[i*m.rowLen:(i+1)*m.rowLen])
		sc.steps[t] = m.steps[i]
		sc.gens[t] = m.gens[i]
	}
	m.mu.Unlock()

	st := &fitState{machines: make([]machineFit, len(m.layout))}
	if count >= 1 {
		st.gen = sc.gens[count-1]
	}
	for mi := range m.layout {
		mf := m.fitMachine(sc, mi, count, st.gen)
		st.pairsTotal += mf.pairs
		if mf.resid > st.maxResidual {
			st.maxResidual = mf.resid
		}
		st.machines[mi] = mf
	}
	m.fit.Store(st)
	m.fits.Add(1)
	return m.Stats()
}

// fitMachine performs the per-machine least squares over the snapshot:
// regressors z = [temps(t), 1, inlet(t+1), utils(t+1)], outputs
// [temps(t+1), exhaust(t+1)], over consecutive same-generation pairs
// with the machine powered on in both samples.
func (m *Model) fitMachine(sc *fitScratch, mi, count int, gen uint64) machineFit {
	l := &m.layout[mi]
	n := len(l.Nodes)
	k := len(l.Utils)
	q := n + 2 + k
	p := 2 + k
	nout := n + 1
	off := m.offs[mi]
	utilAt := off + 2
	tempAt := off + 2 + k
	exAt := off + 2 + k + n

	// A machine's fit is usable from 2q+8 training pairs, q being its
	// regressor count (nodes + 2 + utilization streams).
	minPairs := 2*q + 8

	sc.G = ensure(sc.G, q*q)
	sc.R = ensure(sc.R, q*nout)
	sc.z = ensure(sc.z, q)
	for i := range sc.G {
		sc.G[i] = 0
	}
	for i := range sc.R {
		sc.R[i] = 0
	}

	mf := machineFit{
		envLo: make([]float64, 1+k),
		envHi: make([]float64, 1+k),
	}
	for i := range mf.envLo {
		mf.envLo[i] = math.Inf(1)
		mf.envHi[i] = math.Inf(-1)
	}

	stride := uint64(m.cfg.Every)
	usable := func(t int) bool {
		// Pair (t, t+1): adjacent stored samples exactly one recording
		// stride apart, same (fitted) generation, machine on in both
		// (off dynamics are a different map; off machines are
		// predicted exactly as T = inlet instead).
		if sc.steps[t+1] != sc.steps[t]+stride || sc.gens[t] != gen || sc.gens[t+1] != gen {
			return false
		}
		return sc.data[t*m.rowLen+off] == 1 && sc.data[(t+1)*m.rowLen+off] == 1
	}
	buildZ := func(t int) {
		a := sc.data[t*m.rowLen:]
		b := sc.data[(t+1)*m.rowLen:]
		copy(sc.z[:n], a[tempAt:tempAt+n])
		sc.z[n] = 1
		sc.z[n+1] = b[off+1]
		copy(sc.z[n+2:q], b[utilAt:utilAt+k])
	}

	for t := 0; t+1 < count; t++ {
		if !usable(t) {
			continue
		}
		mf.pairs++
		buildZ(t)
		b := sc.data[(t+1)*m.rowLen:]
		// Envelope over the input side of the pair.
		if v := sc.z[n+1]; v < mf.envLo[0] {
			mf.envLo[0] = v
		}
		if v := sc.z[n+1]; v > mf.envHi[0] {
			mf.envHi[0] = v
		}
		for j := 0; j < k; j++ {
			v := sc.z[n+2+j]
			if v < mf.envLo[1+j] {
				mf.envLo[1+j] = v
			}
			if v > mf.envHi[1+j] {
				mf.envHi[1+j] = v
			}
		}
		for r := 0; r < q; r++ {
			zr := sc.z[r]
			if zr == 0 {
				continue
			}
			grow := sc.G[r*q:]
			for c := 0; c < q; c++ {
				grow[c] += float64(zr * sc.z[c])
			}
			rrow := sc.R[r*nout:]
			for c := 0; c < n; c++ {
				rrow[c] += float64(zr * b[tempAt+c])
			}
			rrow[n] += float64(zr * b[exAt])
		}
	}

	if mf.pairs < minPairs {
		mf.reason = "too few training pairs"
		return mf
	}

	// Scale-aware ridge: near-steady trajectories are collinear.
	var tr float64
	for i := 0; i < q; i++ {
		tr += sc.G[i*q+i]
	}
	lam := ridge * tr / float64(q)
	sc.Gw = ensure(sc.Gw, q*q)
	copy(sc.Gw, sc.G[:q*q])
	for i := 0; i < q; i++ {
		sc.Gw[i*q+i] += lam
	}
	sc.W = ensure(sc.W, q*nout)
	copy(sc.W, sc.R[:q*nout])
	if !solveMulti(sc.Gw, sc.W, q, nout) {
		mf.reason = "collinear trajectory (singular normal equations)"
		return mf
	}
	mf.onestep = make([]float64, q*nout)
	copy(mf.onestep, sc.W[:q*nout])

	// Steady gains: (I − A) M = B, where A/B come out of W's rows.
	sc.IA = ensure(sc.IA, n*n)
	sc.B = ensure(sc.B, n*p)
	for c := 0; c < n; c++ {
		for r := 0; r < n; r++ {
			v := -sc.W[r*nout+c]
			if r == c {
				v += 1
			}
			sc.IA[c*n+r] = v
		}
		for j := 0; j < p; j++ {
			sc.B[c*p+j] = sc.W[(n+j)*nout+c]
		}
	}
	mf.M = make([]float64, n*p)
	copy(mf.M, sc.B[:n*p])
	if !solveMulti(sc.IA, mf.M, n, p) {
		mf.reason = "no steady-state gain (marginally stable fit)"
		return mf
	}

	// Exhaust collapsed through M into a pure-input affine form.
	mf.exGain = make([]float64, p)
	for j := 0; j < p; j++ {
		v := sc.W[(n+j)*nout+n]
		for r := 0; r < n; r++ {
			v += float64(sc.W[r*nout+n] * mf.M[r*p+j])
		}
		mf.exGain[j] = v
	}
	for _, v := range mf.M {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			mf.reason = "non-finite steady gain"
			return mf
		}
	}

	// One-step residual over the training pairs.
	var sse float64
	for t := 0; t+1 < count; t++ {
		if !usable(t) {
			continue
		}
		buildZ(t)
		b := sc.data[(t+1)*m.rowLen:]
		for c := 0; c < n; c++ {
			var pred float64
			for r := 0; r < q; r++ {
				pred += float64(sc.W[r*nout+c] * sc.z[r])
			}
			d := pred - b[tempAt+c]
			sse += float64(d * d)
		}
	}
	mf.resid = math.Sqrt(sse / float64(mf.pairs*n))
	if mf.resid > residualTol {
		mf.reason = "one-step residual above tolerance"
		return mf
	}

	// Expand the envelope: fractional slack plus an absolute floor so
	// a flat input still admits nearby queries.
	mTemp := float64(envelopeFrac*(mf.envHi[0]-mf.envLo[0])) + envelopeAbsTemp
	mf.envLo[0] -= mTemp
	mf.envHi[0] += mTemp
	for j := 0; j < k; j++ {
		mu := float64(envelopeFrac*(mf.envHi[1+j]-mf.envLo[1+j])) + envelopeAbsUtil
		mf.envLo[1+j] -= mu
		mf.envHi[1+j] += mu
	}
	mf.ok = true
	return mf
}

// solveMulti performs in-place Gaussian elimination with partial
// pivoting on A (n×n row-major) against nrhs right-hand sides stored
// row-major in B (n×nrhs), leaving the solutions in B. Returns false
// on a (near-)singular system.
func solveMulti(A, B []float64, n, nrhs int) bool {
	for col := 0; col < n; col++ {
		pivot := col
		best := math.Abs(A[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(A[r*n+col]); v > best {
				best, pivot = v, r
			}
		}
		if best == 0 || math.IsNaN(best) {
			return false
		}
		if pivot != col {
			pr, cr := A[pivot*n:(pivot+1)*n], A[col*n:(col+1)*n]
			for c := col; c < n; c++ {
				cr[c], pr[c] = pr[c], cr[c]
			}
			pb, cb := B[pivot*nrhs:(pivot+1)*nrhs], B[col*nrhs:(col+1)*nrhs]
			for c := 0; c < nrhs; c++ {
				cb[c], pb[c] = pb[c], cb[c]
			}
		}
		for r := col + 1; r < n; r++ {
			f := A[r*n+col] / A[col*n+col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				A[r*n+c] -= float64(f * A[col*n+c])
			}
			rb, cb := B[r*nrhs:(r+1)*nrhs], B[col*nrhs:(col+1)*nrhs]
			for c := 0; c < nrhs; c++ {
				rb[c] -= float64(f * cb[c])
			}
		}
	}
	for r := n - 1; r >= 0; r-- {
		d := A[r*n+r]
		rb := B[r*nrhs : (r+1)*nrhs]
		for c := r + 1; c < n; c++ {
			f := A[r*n+c]
			if f == 0 {
				continue
			}
			cb := B[c*nrhs:]
			for j := 0; j < nrhs; j++ {
				rb[j] -= float64(f * cb[j])
			}
		}
		for j := 0; j < nrhs; j++ {
			rb[j] /= d
		}
	}
	return true
}
