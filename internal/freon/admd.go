package freon

import (
	"fmt"
	"sort"

	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/telemetry"
)

// connTracker maintains the rolling average of a server's concurrent
// connections: "admd wakes up periodically (every five seconds ...)
// and queries LVS about this statistic".
type connTracker struct {
	sum     int
	samples int
	lastAvg float64
}

func (c *connTracker) observe(conns int) {
	c.sum += conns
	c.samples++
}

// rollover closes the observation interval and returns the average.
func (c *connTracker) rollover() float64 {
	if c.samples > 0 {
		c.lastAvg = float64(c.sum) / float64(c.samples)
	}
	c.sum, c.samples = 0, 0
	return c.lastAvg
}

// Admd is the admission-control daemon at the load-balancer node. On a
// hot report it sets the server's weight so it receives
// 1/(output + 1) of the load it currently receives, and caps its
// concurrent connections at the last interval's average; on a cool
// report it removes both restrictions.
type Admd struct {
	bal      Balancer
	nominal  float64 // weight a server returns to when unrestricted
	conns    map[string]*connTracker
	limited  map[string]bool
	adjusted map[string]int // count of adjustments per machine (stats)

	// Two-stage (content-aware) policy state: shedClass maps a hot
	// component node to the request class to block; blocked tracks
	// which classes are currently blocked per machine.
	shedClass map[string]string
	blocked   map[string]map[string]bool

	events *telemetry.EventLog // nil disables decision logging
	tracer *causal.Tracer      // nil disables actuation spans
}

// emit logs a decision when an event log is attached.
func (a *Admd) emit(typ telemetry.EventType, machine string, value float64, detail string) {
	if a.events != nil {
		a.events.Emit(typ, machine, "", value, detail)
	}
}

// span records an actuation span under the report's context. Node
// carries the request class for class-block spans.
func (a *Admd) span(tc causal.Context, kind causal.Kind, machine, node string, value float64) {
	if a.tracer == nil || tc.Zero() {
		return
	}
	now := a.tracer.Now()
	a.tracer.Emit(causal.Span{
		Trace:   tc.Trace,
		Parent:  tc.Span,
		Kind:    kind,
		Begin:   now,
		End:     now,
		Machine: machine,
		Node:    node,
		Value:   value,
	})
}

// NewAdmd builds an admission controller over a balancer. nominal is
// the unrestricted server weight (1 for homogeneous clusters).
func NewAdmd(bal Balancer, nominal float64) (*Admd, error) {
	if nominal <= 0 {
		return nil, fmt.Errorf("freon: nominal weight must be positive, got %v", nominal)
	}
	return &Admd{
		bal:      bal,
		nominal:  nominal,
		conns:    map[string]*connTracker{},
		limited:  map[string]bool{},
		adjusted: map[string]int{},
		blocked:  map[string]map[string]bool{},
	}, nil
}

// EnableTwoStage switches the admission controller to the
// content-aware policy: shedClass maps a component node to the request
// class blocked on servers where that component runs hot. With it
// enabled, the first hot report for a machine only blocks classes;
// weights and caps engage if a later report is still hot.
func (a *Admd) EnableTwoStage(shedClass map[string]string) {
	a.shedClass = map[string]string{}
	for node, class := range shedClass {
		if class != "" {
			a.shedClass[node] = class
		}
	}
}

// PollConns samples a server's peak concurrency since the last poll;
// call every ConnPoll period for every server.
func (a *Admd) PollConns(machine string) error {
	n, err := a.bal.TakePeakConns(machine)
	if err != nil {
		return err
	}
	t, ok := a.conns[machine]
	if !ok {
		t = &connTracker{}
		a.conns[machine] = t
	}
	t.observe(n)
	return nil
}

// HandleReportCtx applies one tempd report under a trace context:
// actuations the report causes (class blocks, weight changes,
// connection caps, releases) are recorded as spans parented to it.
func (a *Admd) HandleReportCtx(tc causal.Context, r Report) error {
	switch {
	case r.Hot:
		if a.shedClass != nil {
			// Stage one: keep the hot components' heavy classes away.
			if fresh, err := a.blockClasses(tc, r.Machine, r.HotNodes); err != nil {
				return err
			} else if fresh {
				return nil // give stage one a period to work
			}
		}
		return a.restrict(tc, r.Machine, r.Output)
	case r.JustCool:
		return a.releaseCtx(tc, r.Machine)
	default:
		return nil
	}
}

// blockClasses applies stage one for the hot nodes; it reports whether
// any new class block was installed this period.
func (a *Admd) blockClasses(tc causal.Context, machine string, hotNodes []string) (bool, error) {
	fresh := false
	for _, node := range hotNodes {
		class, ok := a.shedClass[node]
		if !ok {
			continue
		}
		if a.blocked[machine][class] {
			continue
		}
		if err := a.bal.SetClassBlocked(machine, class, true); err != nil {
			return false, err
		}
		if a.blocked[machine] == nil {
			a.blocked[machine] = map[string]bool{}
		}
		a.blocked[machine][class] = true
		a.emit(telemetry.EvClassBlocked, machine, 0, class)
		a.span(tc, causal.KindClassBlock, machine, class, 0)
		fresh = true
	}
	return fresh, nil
}

// BlockedClasses returns the classes currently blocked on a machine,
// sorted, for observability.
func (a *Admd) BlockedClasses(machine string) []string {
	var out []string
	for _, class := range sortedKeys(a.blocked[machine]) {
		if a.blocked[machine][class] {
			out = append(out, class)
		}
	}
	return out
}

// sortedKeys returns a map's keys in sorted order.
func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// restrict reduces the hot server's share to 1/(output+1) of its
// current share and caps its connections at the recent average.
func (a *Admd) restrict(tc causal.Context, machine string, output float64) error {
	w, err := a.bal.Weight(machine)
	if err != nil {
		return err
	}
	total := a.bal.TotalWeight()
	rest := total - w
	if w <= 0 || rest <= 0 {
		// Already excluded, or it is the only server: weights cannot
		// shift load anywhere. Fall through to the connection cap.
	} else {
		share := w / total
		target := share / (output + 1)
		// Solve w' / (w' + rest) = target.
		newW := target * rest / (1 - target)
		if err := a.bal.SetWeight(machine, newW); err != nil {
			return err
		}
		a.emit(telemetry.EvWeightChange, machine, newW, "")
		a.span(tc, causal.KindWeight, machine, "", newW)
	}

	t, ok := a.conns[machine]
	if !ok {
		t = &connTracker{}
		a.conns[machine] = t
	}
	avg := t.rollover()
	limit := int(avg)
	if limit < 1 {
		limit = 1 // a zero cap would mean "unlimited" to LVS
	}
	if err := a.bal.SetConnLimit(machine, limit); err != nil {
		return err
	}
	a.emit(telemetry.EvConnCap, machine, float64(limit), "")
	a.span(tc, causal.KindConnCap, machine, "", float64(limit))
	a.limited[machine] = true
	a.adjusted[machine]++
	return nil
}

// Release removes a server's restrictions ("eliminate any restrictions
// on the offered load to the server"), including stage-one class
// blocks.
func (a *Admd) Release(machine string) error {
	return a.releaseCtx(causal.Context{}, machine)
}

func (a *Admd) releaseCtx(tc causal.Context, machine string) error {
	if err := a.bal.SetWeight(machine, a.nominal); err != nil {
		return err
	}
	if err := a.bal.SetConnLimit(machine, 0); err != nil {
		return err
	}
	// Sorted so the unblock order — and the event log — is
	// deterministic.
	for _, class := range sortedKeys(a.blocked[machine]) {
		if !a.blocked[machine][class] {
			continue
		}
		if err := a.bal.SetClassBlocked(machine, class, false); err != nil {
			return err
		}
		a.blocked[machine][class] = false
		a.emit(telemetry.EvClassUnblocked, machine, 0, class)
	}
	a.limited[machine] = false
	a.emit(telemetry.EvRelease, machine, 0, "")
	a.span(tc, causal.KindRelease, machine, "", 0)
	return nil
}

// Adjustments returns how many load-distribution adjustments a machine
// has received (Section 5.1 reports "only one adjustment was
// necessary").
func (a *Admd) Adjustments(machine string) int { return a.adjusted[machine] }
