package lvs

import (
	"errors"
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
		for _, n := range pool[:12] {
			if g, w := got.AddServer(n, 1), want.AddServer(n, 1); !sameErr(g, w) {
				t.Fatalf("seed %d: AddServer(%s): %v vs reference %v", seed, n, g, w)
			}
		}
		label := fmt.Sprintf("seed %d", seed)
		picks := drive(t, label, rng, got, want, pool, ops)
		// A stream that mostly fails to assign would prove little.
		if picks < ops/4 {
			t.Fatalf("%s: only %d successful picks in %d ops", label, picks, ops)
		}
	}
}

// TestTreeSizesAgainstReference runs the same operation stream on
// balancers whose server count lands on, just past and well beyond
// powers of two, so the tree is grown and rebuilt under every shape
// and its padding leaves sit next to live ones. Each balancer is
// grown one AddServer at a time, with a server removed each time the
// count reaches a power of two.
func TestTreeSizesAgainstReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 64, 65, 1024} {
		rng := rand.New(rand.NewSource(int64(n)))
		got, want := New(), newRef()
		pool := make([]string, n+4) // four names start unregistered
		for i := range pool {
			pool[i] = fmt.Sprintf("s%d", i)
		}
		label := fmt.Sprintf("servers=%d", n)
		for i, name := range pool[:n] {
			if g, w := got.AddServer(name, 1), want.AddServer(name, 1); !sameErr(g, w) {
				t.Fatalf("%s: AddServer(%s): %v vs reference %v", label, name, g, w)
			}
			if k := i + 1; k&(k-1) == 0 {
				victim := pool[rng.Intn(k)]
				if g, w := got.RemoveServer(victim), want.RemoveServer(victim); !sameErr(g, w) {
					t.Fatalf("%s: RemoveServer(%s): %v vs reference %v", label, victim, g, w)
				}
			}
		}
		drive(t, label, rng, got, want, pool, 20_000)
	}
}

// drive applies ops seeded operations to both balancers, failing on
// the first pick, error or counter that differs, then compares every
// live server's counters. It returns the number of successful picks.
func drive(t *testing.T, label string, rng *rand.Rand, got *Balancer, want *refBalancer, pool []string, ops int) (picks int) {
	t.Helper()
	weights := []float64{0, 0.25, 0.5, 1, 1, 1, 1.5, 2, 3}
	classes := []string{"", "dynamic", "static"}
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
						t.Fatalf("%s op %d: AssignIndex picked %d, reference %q has index %d (%v)", label, op, gi, wn, wi, ok)
					}
					gn = wn
				}
			}
			if gn != wn {
				t.Fatalf("%s op %d: %s picked %q, reference %q", label, op, what, gn, wn)
			}
			if w == nil {
				picks++
			}
		case r < 800:
			// DoneIndex(i, n) must equal n reference Dones, stopping at
			// the first error: n sometimes exceeds the active count.
			n := 1
			if op%2 == 1 {
				n = 1 + rng.Intn(3)
			}
			what = fmt.Sprintf("Done(%s) x%d", name, n)
			for k := 0; k < n && w == nil; k++ {
				w = want.Done(name)
			}
			if i, ok := got.Index(name); ok && op%2 == 1 {
				g = got.DoneIndex(i, n)
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
				t.Fatalf("%s op %d: TakePeakConns(%s) = %d, reference %d", label, op, name, gp, wp)
			}
			if ws, ok := want.servers[name]; ok {
				sameCounters(t, fmt.Sprintf("%s op %d", label, op), got, ws)
			}
			if gw, ww := got.TotalWeight(), want.TotalWeight(); gw != ww {
				t.Fatalf("%s op %d: TotalWeight = %v, reference %v", label, op, gw, ww)
			}
		}
		if !sameErr(g, w) {
			t.Fatalf("%s op %d: %s: error %v, reference %v", label, op, what, g, w)
		}
	}
	if gs := got.Servers(); fmt.Sprint(gs) != fmt.Sprint(want.order) {
		t.Fatalf("%s: Servers = %v, reference %v", label, gs, want.order)
	}
	for _, name := range want.order {
		ws := want.servers[name]
		sameCounters(t, label+" end", got, ws)
		gp, _ := got.TakePeakConns(name)
		if wp, _ := want.TakePeakConns(name); gp != wp {
			t.Fatalf("%s end: TakePeakConns(%s) = %d, reference %d", label, name, gp, wp)
		}
	}
	return picks
}

func sameCounters(t *testing.T, at string, got *Balancer, ws *refServer) {
	t.Helper()
	if a, _ := got.ActiveConns(ws.name); a != ws.active {
		t.Fatalf("%s: ActiveConns(%s) = %d, reference %d", at, ws.name, a, ws.active)
	}
	if a, _ := got.Assigned(ws.name); a != ws.assigned {
		t.Fatalf("%s: Assigned(%s) = %d, reference %d", at, ws.name, a, ws.assigned)
	}
}

// A leader that blocks the request's class sends the pick to the
// fallback scan, which must choose what the reference chooses: the
// least key among servers that accept the class, or none.
func TestBlockedLeaderFallsBack(t *testing.T) {
	got, want := New(), newRef()
	both := func(g, w error) {
		t.Helper()
		if g != nil || w != nil {
			t.Fatal(g, w)
		}
	}
	pick := func(class, wantName string, wantErr error) {
		t.Helper()
		g, gerr := got.AssignClass(class)
		w, werr := want.AssignClass(class)
		if g != w || !sameErr(gerr, werr) {
			t.Fatalf("AssignClass(%q) = %q (%v), reference %q (%v)", class, g, gerr, w, werr)
		}
		if g != wantName || !errors.Is(gerr, wantErr) {
			t.Fatalf("AssignClass(%q) = %q (%v), want %q (%v)", class, g, gerr, wantName, wantErr)
		}
	}
	servers := []string{"s1", "s2", "s3", "s4"}
	for _, n := range servers {
		both(got.AddServer(n, 1), want.AddServer(n, 1))
	}
	for _, n := range servers {
		pick("", n, nil) // one connection each
	}
	both(got.Done("s1"), want.Done("s1"))
	both(got.Done("s3"), want.Done("s3"))
	both(got.SetClassBlocked("s1", "dynamic", true), want.SetClassBlocked("s1", "dynamic", true))
	// s1 leads with no connections but blocks dynamic: the scan must
	// pick s3, the other idle server, over s2 before it.
	pick("dynamic", "s3", nil)
	pick("", "s1", nil) // the empty class still takes the leader
	// With s2-s4 at their caps, dynamic has nowhere to go.
	for _, n := range servers[1:] {
		both(got.SetConnLimit(n, 1), want.SetConnLimit(n, 1))
	}
	both(got.Done("s1"), want.Done("s1"))
	pick("dynamic", "", ErrNoServer)
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
		g, gerr := got.AssignClass("")
		w, werr := want.AssignClass("")
		if g != w || !sameErr(gerr, werr) {
			t.Fatalf("pick %d: %q (%v), reference %q (%v)", i, g, gerr, w, werr)
		}
	}
}

// FuzzBalancerDifferential decodes a byte stream into balancer
// operations and runs them against the reference, requiring every
// pick, error and counter to agree. The first byte registers up to 79
// servers of weight 1, so the tree is grown past 1, 2, 4, ... 64
// leaves before the stream's own AddServer calls grow it further.
// Each operation is three bytes: opcode, server, argument. Weights run
// down to the subnormal 5e-324, whose active/weight overflows to the
// MaxFloat64 clamp, and 1e-308, which overflows from two connections.
func FuzzBalancerDifferential(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 1+3*400)
		rng.Read(data)
		data[0] = byte(rng.Intn(80))
		f.Add(data)
	}
	weights := []float64{5e-324, 1e-308, 1e-300, 1e-3, 0.25, 0.5, 1, 1.5, 3, 0, -1}
	classes := []string{"", "dynamic", "static"}
	ops := []string{"AddServer", "RemoveServer", "SetWeight", "SetConnLimit", "Quiesce", "Resume",
		"SetClassBlocked", "AssignClass", "AssignIndex", "DoneIndex", "counters"}
	pool := make([]string, 96)
	for i := range pool {
		pool[i] = fmt.Sprintf("s%d", i)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		got, want := New(), newRef()
		for _, name := range pool[:int(data[0])%80] {
			if g, w := got.AddServer(name, 1), want.AddServer(name, 1); !sameErr(g, w) {
				t.Fatalf("AddServer(%s): %v vs reference %v", name, g, w)
			}
		}
		for op, rest := 0, data[1:]; len(rest) >= 3; op, rest = op+1, rest[3:] {
			code, name, arg := int(rest[0])%len(ops), pool[int(rest[1])%len(pool)], rest[2]
			wt, class := weights[int(arg)%len(weights)], classes[int(arg)%len(classes)]
			var g, w error
			switch code {
			case 0:
				g, w = got.AddServer(name, wt), want.AddServer(name, wt)
			case 1:
				g, w = got.RemoveServer(name), want.RemoveServer(name)
			case 2:
				g, w = got.SetWeight(name, wt), want.SetWeight(name, wt)
			case 3:
				limit := int(arg)%6 - 1 // -1 is rejected, 0 lifts the cap
				g, w = got.SetConnLimit(name, limit), want.SetConnLimit(name, limit)
			case 4:
				g, w = got.Quiesce(name), want.setQuiesced(name, true)
			case 5:
				g, w = got.Resume(name), want.setQuiesced(name, false)
			case 6:
				g, w = got.SetClassBlocked(name, class, arg&4 != 0), want.SetClassBlocked(name, class, arg&4 != 0)
			case 7:
				var gn, wn string
				gn, g = got.AssignClass(class)
				wn, w = want.AssignClass(class)
				if gn != wn {
					t.Fatalf("op %d: AssignClass(%q) picked %q, reference %q", op, class, gn, wn)
				}
			case 8:
				var gi int
				var wn string
				gi, g = got.AssignIndex(class)
				wn, w = want.AssignClass(class)
				if g == nil && w == nil {
					if wi, ok := got.Index(wn); !ok || wi != gi {
						t.Fatalf("op %d: AssignIndex(%q) picked %d, reference %q has index %d (%v)", op, class, gi, wn, wi, ok)
					}
				}
			case 9:
				// DoneIndex(i, n) must equal n reference Dones, stopping
				// at the first error.
				n := 1 + int(arg)%4
				for k := 0; k < n && w == nil; k++ {
					w = want.Done(name)
				}
				if i, ok := got.Index(name); ok {
					g = got.DoneIndex(i, n)
				} else {
					g = got.Done(name)
				}
			default:
				gp, ge := got.TakePeakConns(name)
				wp, we := want.TakePeakConns(name)
				g, w = ge, we
				if gp != wp {
					t.Fatalf("op %d: TakePeakConns(%s) = %d, reference %d", op, name, gp, wp)
				}
				if ws, ok := want.servers[name]; ok {
					sameCounters(t, "counters", got, ws)
				}
				if gw, ww := got.TotalWeight(), want.TotalWeight(); gw != ww {
					t.Fatalf("op %d: TotalWeight = %v, reference %v", op, gw, ww)
				}
			}
			if !sameErr(g, w) {
				t.Fatalf("op %d: %s(%s, arg %d): error %v, reference %v", op, ops[code], name, arg, g, w)
			}
		}
		if gs := got.Servers(); fmt.Sprint(gs) != fmt.Sprint(want.order) {
			t.Fatalf("Servers = %v, reference %v", gs, want.order)
		}
		for _, name := range want.order {
			sameCounters(t, "end", got, want.servers[name])
		}
	})
}
