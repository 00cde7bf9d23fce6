// Package lvs implements the load-balancer substrate Freon drives: a
// weighted least-connections request scheduler in the style of the
// Linux Virtual Server [Zhang 2000], the balancer the paper used.
// Requests go to the eligible server with the smallest ratio of active
// connections to weight; Freon manipulates weights and per-server
// connection limits to move load away from hot servers ("remote
// throttling"), and Freon-EC quiesces and drains servers before
// turning them off.
package lvs

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrNoServer is returned by Assign when no server can take the
// request (all quiesced, zero-weighted, or at their connection caps).
// The caller counts these as dropped requests.
var ErrNoServer = errors.New("lvs: no eligible server")

type server struct {
	name     string
	weight   float64
	connCap  int // 0 = unlimited
	active   int
	peak     int // high-watermark of active since last TakePeakConns
	quiesced bool
	removed  bool
	assigned uint64
	// blocked holds request classes this server refuses; Freon's
	// content-aware stage keeps CPU-heavy classes away from servers
	// with hot CPUs.
	blocked map[string]bool
}

// Balancer is a weighted least-connections scheduler. Safe for
// concurrent use.
//
// Servers live in a slice in registration order, and a server's
// position in it is its index for the balancer's lifetime:
// RemoveServer retires the slot instead of shifting later ones. The
// request path (AssignIndex, DoneIndex) addresses servers by index;
// names are for the control plane, which resolves them through one map
// lookup per call.
type Balancer struct {
	mu      sync.Mutex
	index   map[string]int
	servers []server
	// keys[i] is server i's scheduling key: active/weight while it may
	// take a request, +Inf while it may not (quiesced, zero weight, at
	// its connection cap, removed). Only the server an operation
	// touched is re-keyed, so a pick is one scan over contiguous floats.
	keys []float64
}

// New creates an empty balancer.
func New() *Balancer {
	return &Balancer{index: map[string]int{}}
}

// AddServer registers a server with the given weight (must be > 0).
func (b *Balancer) AddServer(name string, weight float64) error {
	if name == "" {
		return fmt.Errorf("lvs: empty server name")
	}
	if weight <= 0 {
		return fmt.Errorf("lvs: server %q needs positive weight, got %v", name, weight)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.index[name]; dup {
		return fmt.Errorf("lvs: server %q already registered", name)
	}
	b.index[name] = len(b.servers)
	b.servers = append(b.servers, server{name: name, weight: weight})
	b.keys = append(b.keys, 0)
	return nil
}

// RemoveServer unregisters a server entirely. Its index is retired,
// not reused: registering the name again appends a new server.
func (b *Balancer) RemoveServer(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	i, err := b.lookup(name)
	if err != nil {
		return err
	}
	delete(b.index, name)
	b.servers[i] = server{removed: true}
	b.rekey(i)
	return nil
}

// Index returns a server's index: its position in registration order,
// counting removed servers.
func (b *Balancer) Index(name string) (int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	i, ok := b.index[name]
	return i, ok
}

func (b *Balancer) lookup(name string) (int, error) {
	i, ok := b.index[name]
	if !ok {
		return 0, fmt.Errorf("lvs: unknown server %q", name)
	}
	return i, nil
}

// rekey recomputes server i's scheduling key after a change to
// anything the key depends on.
func (b *Balancer) rekey(i int) {
	s := &b.servers[i]
	if s.removed || s.quiesced || s.weight <= 0 || (s.connCap > 0 && s.active >= s.connCap) {
		b.keys[i] = math.Inf(1)
		return
	}
	k := float64(s.active) / s.weight
	if k > math.MaxFloat64 {
		k = math.MaxFloat64 // an overflowed ratio is still eligible
	}
	b.keys[i] = k
}

// SetWeight changes a server's scheduling weight. Weight 0 stops new
// assignments (LVS semantics) without dropping existing connections.
func (b *Balancer) SetWeight(name string, weight float64) error {
	if weight < 0 {
		return fmt.Errorf("lvs: negative weight %v", weight)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	i, err := b.lookup(name)
	if err != nil {
		return err
	}
	b.servers[i].weight = weight
	b.rekey(i)
	return nil
}

// Weight returns a server's current weight.
func (b *Balancer) Weight(name string) (float64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	i, err := b.lookup(name)
	if err != nil {
		return 0, err
	}
	return b.servers[i].weight, nil
}

// SetConnLimit caps a server's concurrent connections (0 removes the
// cap). Freon sets this to the server's recent average so rising
// offered load cannot defeat a weight reduction.
func (b *Balancer) SetConnLimit(name string, limit int) error {
	if limit < 0 {
		return fmt.Errorf("lvs: negative connection limit %d", limit)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	i, err := b.lookup(name)
	if err != nil {
		return err
	}
	b.servers[i].connCap = limit
	b.rekey(i)
	return nil
}

// ConnLimit returns a server's connection cap (0 = unlimited).
func (b *Balancer) ConnLimit(name string) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	i, err := b.lookup(name)
	if err != nil {
		return 0, err
	}
	return b.servers[i].connCap, nil
}

// Quiesce stops new assignments to a server while existing
// connections drain (the first step of turning a server off).
func (b *Balancer) Quiesce(name string) error { return b.setQuiesced(name, true) }

// Resume re-enables assignments to a quiesced server.
func (b *Balancer) Resume(name string) error { return b.setQuiesced(name, false) }

func (b *Balancer) setQuiesced(name string, q bool) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	i, err := b.lookup(name)
	if err != nil {
		return err
	}
	b.servers[i].quiesced = q
	b.rekey(i)
	return nil
}

// Quiesced reports whether a server is quiesced.
func (b *Balancer) Quiesced(name string) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	i, err := b.lookup(name)
	if err != nil {
		return false, err
	}
	return b.servers[i].quiesced, nil
}

// ActiveConns returns a server's current connection count.
func (b *Balancer) ActiveConns(name string) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	i, err := b.lookup(name)
	if err != nil {
		return 0, err
	}
	return b.servers[i].active, nil
}

// Assigned returns the total requests ever assigned to a server.
func (b *Balancer) Assigned(name string) (uint64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	i, err := b.lookup(name)
	if err != nil {
		return 0, err
	}
	return b.servers[i].assigned, nil
}

// Servers returns the registered server names in registration order.
func (b *Balancer) Servers() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	names := make([]string, 0, len(b.index))
	for i := range b.servers {
		if s := &b.servers[i]; !s.removed {
			names = append(names, s.name)
		}
	}
	return names
}

// Assign picks the eligible server with the smallest active/weight
// ratio, increments its connection count, and returns its name. LVS's
// weighted least-connections: "LVS directs requests to the server i
// with the lowest ratio of active connections and weight".
func (b *Balancer) Assign() (string, error) { return b.AssignClass("") }

// AssignClass assigns a request of the given content class (e.g.
// "dynamic" or "static"), skipping servers that block the class. The
// empty class is never blocked. This is the content-aware distribution
// Section 4.3 calls for; plain Assign is AssignClass("").
func (b *Balancer) AssignClass(class string) (string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	i, err := b.assign(class)
	if err != nil {
		return "", err
	}
	return b.servers[i].name, nil
}

// AssignIndex is AssignClass returning the server's index instead of
// its name, for callers that keep per-server state in a slice.
func (b *Balancer) AssignIndex(class string) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.assign(class)
}

// assign scans the keys for the first strict minimum, so ties go to
// the earliest-registered server. The class-block map is consulted
// only for a server that would otherwise take the lead.
func (b *Balancer) assign(class string) (int, error) {
	best, bestKey := -1, math.Inf(1)
	for i, k := range b.keys {
		if k < bestKey && !b.servers[i].blocked[class] {
			best, bestKey = i, k
		}
	}
	if best < 0 {
		return 0, ErrNoServer
	}
	s := &b.servers[best]
	s.active++
	s.assigned++
	if s.active > s.peak {
		s.peak = s.active
	}
	b.rekey(best)
	return best, nil
}

// SetClassBlocked marks a request class as refused (or accepted again)
// by a server.
func (b *Balancer) SetClassBlocked(name, class string, blocked bool) error {
	if class == "" {
		return fmt.Errorf("lvs: empty class")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	i, err := b.lookup(name)
	if err != nil {
		return err
	}
	s := &b.servers[i]
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

// ClassBlocked reports whether a server refuses a class.
func (b *Balancer) ClassBlocked(name, class string) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	i, err := b.lookup(name)
	if err != nil {
		return false, err
	}
	return b.servers[i].blocked[class], nil
}

// TakePeakConns returns the highest concurrent-connection count a
// server reached since the previous call, and resets the watermark.
// Freon's admd samples this to cap hot servers at their recent
// concurrency (the paper's "average number of concurrent requests over
// the last time interval", measured where it peaks rather than at the
// idle instants between batches).
func (b *Balancer) TakePeakConns(name string) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	i, err := b.lookup(name)
	if err != nil {
		return 0, err
	}
	s := &b.servers[i]
	p := s.peak
	s.peak = s.active
	return p, nil
}

// Done releases one connection on a server.
func (b *Balancer) Done(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	i, err := b.lookup(name)
	if err != nil {
		return err
	}
	return b.done(i)
}

// DoneIndex is Done for a server addressed by index.
func (b *Balancer) DoneIndex(i int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if i < 0 || i >= len(b.servers) || b.servers[i].removed {
		return fmt.Errorf("lvs: unknown server index %d", i)
	}
	return b.done(i)
}

func (b *Balancer) done(i int) error {
	s := &b.servers[i]
	if s.active <= 0 {
		return fmt.Errorf("lvs: server %q has no active connections", s.name)
	}
	s.active--
	b.rekey(i)
	return nil
}

// TotalWeight sums the weights of non-quiesced servers; Freon's weight
// arithmetic accounts "for the weights of all servers".
func (b *Balancer) TotalWeight() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var sum float64
	for i := range b.servers {
		if s := &b.servers[i]; !s.quiesced {
			sum += s.weight
		}
	}
	return sum
}
