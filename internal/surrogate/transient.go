package surrogate

import (
	"sync"
	"time"
)

// transScratch holds the preallocated buffers one transient query
// needs: a full sample row plus two temperature vectors for the
// leapfrog iteration. Guarded by its own mutex so TimeToThreshold is
// safe to call from the alert engine's tick loop concurrently with
// recording, fitting, and steady-state queries — without allocating.
type transScratch struct {
	mu  sync.Mutex
	row []float64
	x   []float64
	xn  []float64
}

func (m *Model) transient() *transScratch {
	m.transOnce.Do(func() {
		maxN := 0
		for i := range m.layout {
			if n := len(m.layout[i].Nodes); n > maxN {
				maxN = n
			}
		}
		m.trans = &transScratch{
			row: make([]float64, m.rowLen),
			x:   make([]float64, maxN),
			xn:  make([]float64, maxN),
		}
	})
	return m.trans
}

// TimeToThreshold answers the predictive-alerting question: starting
// from the solver's *current* temperatures and holding the current
// inputs (inlet, utilizations) frozen, how long until machine's node
// first reaches threshold? It iterates the fitted one-step transient
// map temps(t+1) = W·[temps(t), 1, inlet, utils] in recording strides
// (Config.Every solver ticks per step) up to horizon.
//
// ok reports whether the fit could answer at all — a missing or stale
// fit, an unknown machine or node, a powered-off machine, or inputs
// outside the fit's validity envelope all return ok=false so the
// caller can fall back to cruder extrapolation. With ok=true, a
// negative duration means the map predicts no crossing within horizon
// (the trajectory settles below threshold); otherwise the returned
// duration is the predicted ETA, quantized to the recording stride.
//
// The call performs no allocation: it reads one sample row under the
// solver lock and iterates on preallocated scratch.
func (m *Model) TimeToThreshold(machine, node string, threshold float64, horizon time.Duration) (time.Duration, bool) {
	fs := m.fit.Load()
	if fs == nil {
		return 0, false
	}
	mi, okm := m.midx[machine]
	if !okm || !fs.machines[mi].ok || fs.machines[mi].onestep == nil {
		return 0, false
	}
	mf := &fs.machines[mi]
	l := &m.layout[mi]
	ni := -1
	for i, name := range l.Nodes {
		if name == node {
			ni = i
			break
		}
	}
	if ni < 0 {
		return 0, false
	}

	n := len(l.Nodes)
	k := len(l.Utils)
	nout := n + 1
	off := m.offs[mi]

	sc := m.transient()
	sc.mu.Lock()
	defer sc.mu.Unlock()
	_, _, gen := m.sol.ReadSample(sc.row)
	if gen != fs.gen {
		return 0, false // the room was fiddled since the fit; coefficients are stale
	}
	if sc.row[off] != 1 {
		return 0, false // powered off: off dynamics are a different map
	}
	inlet := sc.row[off+1]
	utils := sc.row[off+2 : off+2+k]
	if inlet < mf.envLo[0] || inlet > mf.envHi[0] {
		return 0, false
	}
	for j := 0; j < k; j++ {
		if utils[j] < mf.envLo[1+j] || utils[j] > mf.envHi[1+j] {
			return 0, false
		}
	}

	x := sc.x[:n]
	xn := sc.xn[:n]
	copy(x, sc.row[off+2+k:off+2+k+n])
	if x[ni] >= threshold {
		return 0, true
	}
	stride := time.Duration(m.cfg.Every) * m.sol.StepSize()
	if stride <= 0 {
		return 0, false
	}
	maxSteps := int(horizon / stride)
	W := mf.onestep
	for s := 1; s <= maxSteps; s++ {
		for c := 0; c < n; c++ {
			v := W[n*nout+c] + float64(W[(n+1)*nout+c]*inlet)
			for r := 0; r < n; r++ {
				v += float64(W[r*nout+c] * x[r])
			}
			for j := 0; j < k; j++ {
				v += float64(W[(n+2+j)*nout+c] * utils[j])
			}
			xn[c] = v
		}
		x, xn = xn, x
		if x[ni] >= threshold {
			return time.Duration(s) * stride, true
		}
	}
	return -1, true
}
