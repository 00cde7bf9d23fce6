package lvs

import (
	"fmt"
	"math/rand"
	"testing"
)

// refBalancer is the scheduler as it was before servers became
// index-addressed: a name-keyed map scanned in registration order,
// every ratio recomputed on every pick. It is the oracle the cached-key
// scheduler is checked against; it needs no lock because only the test
// goroutine drives it.
type refBalancer struct {
	servers map[string]*refServer
	order   []string
}

type refServer struct {
	name     string
	weight   float64
	connCap  int
	active   int
	peak     int
	quiesced bool
	assigned uint64
	blocked  map[string]bool
}

func newRef() *refBalancer { return &refBalancer{servers: map[string]*refServer{}} }

func (b *refBalancer) server(name string) (*refServer, error) {
	s, ok := b.servers[name]
	if !ok {
		return nil, fmt.Errorf("lvs: unknown server %q", name)
	}
	return s, nil
}

func (b *refBalancer) AddServer(name string, weight float64) error {
	if name == "" {
		return fmt.Errorf("lvs: empty server name")
	}
	if weight <= 0 {
		return fmt.Errorf("lvs: server %q needs positive weight, got %v", name, weight)
	}
	if _, dup := b.servers[name]; dup {
		return fmt.Errorf("lvs: server %q already registered", name)
	}
	b.servers[name] = &refServer{name: name, weight: weight}
	b.order = append(b.order, name)
	return nil
}

func (b *refBalancer) RemoveServer(name string) error {
	if _, err := b.server(name); err != nil {
		return err
	}
	delete(b.servers, name)
	for i, n := range b.order {
		if n == name {
			b.order = append(b.order[:i], b.order[i+1:]...)
			break
		}
	}
	return nil
}

func (b *refBalancer) SetWeight(name string, weight float64) error {
	if weight < 0 {
		return fmt.Errorf("lvs: negative weight %v", weight)
	}
	s, err := b.server(name)
	if err != nil {
		return err
	}
	s.weight = weight
	return nil
}

func (b *refBalancer) SetConnLimit(name string, limit int) error {
	if limit < 0 {
		return fmt.Errorf("lvs: negative connection limit %d", limit)
	}
	s, err := b.server(name)
	if err != nil {
		return err
	}
	s.connCap = limit
	return nil
}

func (b *refBalancer) setQuiesced(name string, q bool) error {
	s, err := b.server(name)
	if err != nil {
		return err
	}
	s.quiesced = q
	return nil
}

func (b *refBalancer) SetClassBlocked(name, class string, blocked bool) error {
	if class == "" {
		return fmt.Errorf("lvs: empty class")
	}
	s, err := b.server(name)
	if err != nil {
		return err
	}
	if s.blocked == nil {
		s.blocked = map[string]bool{}
	}
	if blocked {
		s.blocked[class] = true
	} else {
		delete(s.blocked, class)
	}
	return nil
}

func (b *refBalancer) AssignClass(class string) (string, error) {
	var best *refServer
	var bestRatio float64
	for _, name := range b.order {
		s := b.servers[name]
		if s.quiesced || s.weight <= 0 {
			continue
		}
		if class != "" && s.blocked[class] {
			continue
		}
		if s.connCap > 0 && s.active >= s.connCap {
			continue
		}
		ratio := float64(s.active) / s.weight
		if best == nil || ratio < bestRatio {
			best, bestRatio = s, ratio
		}
	}
	if best == nil {
		return "", ErrNoServer
	}
	best.active++
	best.assigned++
	if best.active > best.peak {
		best.peak = best.active
	}
	return best.name, nil
}

func (b *refBalancer) Done(name string) error {
	s, err := b.server(name)
	if err != nil {
		return err
	}
	if s.active <= 0 {
		return fmt.Errorf("lvs: server %q has no active connections", name)
	}
	s.active--
	return nil
}

func (b *refBalancer) TakePeakConns(name string) (int, error) {
	s, err := b.server(name)
	if err != nil {
		return 0, err
	}
	p := s.peak
	s.peak = s.active
	return p, nil
}

func (b *refBalancer) TotalWeight() float64 {
	var sum float64
	for _, name := range b.order {
		if s := b.servers[name]; !s.quiesced {
			sum += s.weight
		}
	}
	return sum
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// TestDifferentialAgainstReference drives the scheduler and the
// reference through the same seeded stream of mixed operations and
// requires every pick, error and counter to agree. Weights come from a
// small set so exact ties (the registration-order tie-break) are the
// common case, and the pool of names is larger than the live set so
// unknown-server errors and re-registration are exercised too.
func TestDifferentialAgainstReference(t *testing.T) {
	const ops = 200_000
	for _, seed := range []int64{1, 7} {
		rng := rand.New(rand.NewSource(seed))
		got, want := New(), newRef()
		pool := make([]string, 24)
		for i := range pool {
			pool[i] = fmt.Sprintf("s%d", i)
		}
		weights := []float64{0, 0.25, 0.5, 1, 1, 1, 1.5, 2, 3}
		classes := []string{"", "dynamic", "static"}
		for _, n := range pool[:12] {
			if g, w := got.AddServer(n, 1), want.AddServer(n, 1); !sameErr(g, w) {
				t.Fatalf("seed %d: AddServer(%s): %v vs reference %v", seed, n, g, w)
			}
		}
		picks := 0
		for op := 0; op < ops; op++ {
			name := pool[rng.Intn(len(pool))]
			var g, w error
			what := ""
			switch r := rng.Intn(1000); {
			case r < 420:
				class := classes[rng.Intn(len(classes))]
				what = "Assign(" + class + ")"
				var gn, wn string
				wn, w = want.AssignClass(class)
				if op%2 == 0 {
					gn, g = got.AssignClass(class)
				} else {
					var gi int
					if gi, g = got.AssignIndex(class); g == nil {
						if wi, ok := got.Index(wn); !ok || wi != gi {
							t.Fatalf("seed %d op %d: AssignIndex picked %d, reference %q has index %d (%v)", seed, op, gi, wn, wi, ok)
						}
						gn = wn
					}
				}
				if gn != wn {
					t.Fatalf("seed %d op %d: %s picked %q, reference %q", seed, op, what, gn, wn)
				}
				if w == nil {
					picks++
				}
			case r < 800:
				what = "Done(" + name + ")"
				w = want.Done(name)
				if i, ok := got.Index(name); ok && op%2 == 1 {
					g = got.DoneIndex(i)
				} else {
					g = got.Done(name)
				}
			case r < 850:
				wt := weights[rng.Intn(len(weights))]
				if rng.Intn(20) == 0 {
					wt = -1
				}
				what = fmt.Sprintf("SetWeight(%s, %v)", name, wt)
				g, w = got.SetWeight(name, wt), want.SetWeight(name, wt)
			case r < 890:
				limit := rng.Intn(6) - 1 // -1 is rejected, 0 lifts the cap
				what = fmt.Sprintf("SetConnLimit(%s, %d)", name, limit)
				g, w = got.SetConnLimit(name, limit), want.SetConnLimit(name, limit)
			case r < 910:
				what = "Quiesce(" + name + ")"
				g, w = got.Quiesce(name), want.setQuiesced(name, true)
			case r < 930:
				what = "Resume(" + name + ")"
				g, w = got.Resume(name), want.setQuiesced(name, false)
			case r < 960:
				class, blocked := classes[rng.Intn(len(classes))], rng.Intn(2) == 0
				what = fmt.Sprintf("SetClassBlocked(%s, %q, %v)", name, class, blocked)
				g, w = got.SetClassBlocked(name, class, blocked), want.SetClassBlocked(name, class, blocked)
			case r < 975:
				wt := weights[rng.Intn(len(weights))]
				what = fmt.Sprintf("AddServer(%s, %v)", name, wt)
				g, w = got.AddServer(name, wt), want.AddServer(name, wt)
			case r < 980:
				what = "RemoveServer(" + name + ")"
				g, w = got.RemoveServer(name), want.RemoveServer(name)
			default:
				what = "counters(" + name + ")"
				gp, ge := got.TakePeakConns(name)
				wp, we := want.TakePeakConns(name)
				g, w = ge, we
				if gp != wp {
					t.Fatalf("seed %d op %d: TakePeakConns(%s) = %d, reference %d", seed, op, name, gp, wp)
				}
				if ws, ok := want.servers[name]; ok {
					if a, _ := got.ActiveConns(name); a != ws.active {
						t.Fatalf("seed %d op %d: ActiveConns(%s) = %d, reference %d", seed, op, name, a, ws.active)
					}
					if a, _ := got.Assigned(name); a != ws.assigned {
						t.Fatalf("seed %d op %d: Assigned(%s) = %d, reference %d", seed, op, name, a, ws.assigned)
					}
				}
				if gw, ww := got.TotalWeight(), want.TotalWeight(); gw != ww {
					t.Fatalf("seed %d op %d: TotalWeight = %v, reference %v", seed, op, gw, ww)
				}
			}
			if !sameErr(g, w) {
				t.Fatalf("seed %d op %d: %s: error %v, reference %v", seed, op, what, g, w)
			}
		}
		if gs := got.Servers(); fmt.Sprint(gs) != fmt.Sprint(want.order) {
			t.Fatalf("seed %d: Servers = %v, reference %v", seed, gs, want.order)
		}
		// A stream that mostly fails to assign would prove little.
		if picks < ops/4 {
			t.Fatalf("seed %d: only %d successful picks in %d ops", seed, picks, ops)
		}
	}
}

// A weight small enough that active/weight overflows must leave the
// server eligible, as it was when the ratio was computed per pick.
func TestOverflowedRatioStaysEligible(t *testing.T) {
	got, want := New(), newRef()
	for _, n := range []string{"a", "b"} {
		if g, w := got.AddServer(n, 5e-324), want.AddServer(n, 5e-324); g != nil || w != nil {
			t.Fatal(g, w)
		}
	}
	for i := 0; i < 6; i++ {
		g, gerr := got.Assign()
		w, werr := want.AssignClass("")
		if g != w || !sameErr(gerr, werr) {
			t.Fatalf("pick %d: %q (%v), reference %q (%v)", i, g, gerr, w, werr)
		}
	}
}
