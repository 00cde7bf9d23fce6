// Package lvs implements the load-balancer substrate Freon drives: a
// weighted least-connections request scheduler in the style of the
// Linux Virtual Server [Zhang 2000], the balancer the paper used.
// Requests go to the eligible server with the smallest ratio of active
// connections to weight; Freon manipulates weights and per-server
// connection limits to move load away from hot servers ("remote
// throttling"), and Freon-EC quiesces and drains servers before
// turning them off.
//
// A Balancer belongs to one goroutine: it has no lock, and the request
// path costs one tournament replay per assign or release.
package lvs

import (
	"errors"
	"fmt"
	"math"
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

// Balancer is a weighted least-connections scheduler. It is not safe
// for concurrent use: one goroutine makes every call, in this module
// the lockstep loop that runs both the web cluster's requests and
// Freon's policies. The one reader on another goroutine, Freon's
// control-plane snapshot, calls only Weight, under the policy mutex
// that also orders every SetWeight.
//
// Servers live in a slice in registration order, and a server's
// position in it is its index for the balancer's lifetime:
// RemoveServer retires the slot instead of shifting later ones. The
// request path (AssignIndex, DoneIndex) addresses servers by index;
// names are for the control plane, which resolves them through one map
// lookup per call.
//
// Each server has a cached scheduling key: active/weight while it may
// take a request, +Inf while it may not (quiesced, zero weight, at its
// connection cap, removed). The keys are the leaves of a tournament
// tree whose root is the least key, ties going to the lower index, so
// a pick reads the root and a change to one server re-keys one
// leaf-to-root path.
//
// A key is stored as its math.Float64bits. Keys are never negative or
// NaN, and the bits of non-negative floats, +Inf included, order as
// the floats do, so the tournament compares integers.
type Balancer struct {
	index   map[string]int
	servers []server
	// keys and idxs are a 1-based min-tree: node p's children are 2p
	// and 2p+1, and it holds the least key below it and the server
	// holding that key. Server i's key is leaf size+i; leaves past the
	// last server hold +Inf. size is a power of two, at least
	// len(servers).
	keys []uint64
	idxs []int32
	size int
}

var infBits = math.Float64bits(math.Inf(1))

// New creates an empty balancer.
func New() *Balancer {
	return &Balancer{index: map[string]int{}}
}

// AddServer registers a server with the given weight (must be > 0 and
// finite).
func (b *Balancer) AddServer(name string, weight float64) error {
	if name == "" {
		return fmt.Errorf("lvs: empty server name")
	}
	if weight <= 0 {
		return fmt.Errorf("lvs: server %q needs positive weight, got %v", name, weight)
	}
	if math.IsNaN(weight) || math.IsInf(weight, 0) {
		return fmt.Errorf("lvs: server %q needs a finite weight, got %v", name, weight)
	}
	if _, dup := b.index[name]; dup {
		return fmt.Errorf("lvs: server %q already registered", name)
	}
	i := len(b.servers)
	b.index[name] = i
	b.servers = append(b.servers, server{name: name, weight: weight})
	if i == b.size {
		b.grow()
	}
	b.rekey(i)
	return nil
}

// grow doubles the tree's leaf count and rebuilds it from the servers'
// current keys. The right child wins only with a strictly smaller key,
// so equal keys go to the lower index.
func (b *Balancer) grow() {
	size := max(1, 2*b.size)
	keys, idxs := make([]uint64, 2*size), make([]int32, 2*size)
	for i := range size {
		keys[size+i], idxs[size+i] = infBits, int32(i)
	}
	copy(keys[size:], b.keys[b.size:])
	for p := size - 1; p >= 1; p-- {
		w := 2 * p
		if keys[w+1] < keys[w] {
			w++
		}
		keys[p], idxs[p] = keys[w], idxs[w]
	}
	b.keys, b.idxs, b.size = keys, idxs, size
}

// RemoveServer unregisters a server entirely. Its index is retired,
// not reused: registering the name again appends a new server.
func (b *Balancer) RemoveServer(name string) error {
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
// anything the key depends on, and replays the tournament from its
// leaf to the root. The path's winner rides up in registers and each
// level reads only the sibling, which wins with a strictly smaller key
// or, from the left (lower indices), an equal one. The replay has no
// early exit and no branch on the keys: the compiler selects with
// CMOV.
func (b *Balancer) rekey(i int) {
	s := &b.servers[i]
	k := math.Inf(1)
	if !s.removed && !s.quiesced && s.weight > 0 && (s.connCap == 0 || s.active < s.connCap) {
		k = float64(s.active) / s.weight
		if k > math.MaxFloat64 {
			k = math.MaxFloat64 // an overflowed ratio is still eligible
		}
	}
	keys := b.keys
	idxs := b.idxs[:len(keys)] // the same length, so keys' bounds checks cover idxs
	p := b.size + i
	key, idx := math.Float64bits(k), int32(i)
	keys[p] = key
	for p > 1 {
		sk, si := keys[p^1], idxs[p^1]
		// p&1 is 1 when the sibling is the left child, which also wins a
		// tie. key <= infBits, so adding it cannot overflow.
		if sk < key+uint64(p&1) {
			key, idx = sk, si
		}
		p >>= 1
		keys[p], idxs[p] = key, idx
	}
}

// SetWeight changes a server's scheduling weight. Weight 0 stops new
// assignments (LVS semantics) without dropping existing connections.
func (b *Balancer) SetWeight(name string, weight float64) error {
	if math.IsNaN(weight) || math.IsInf(weight, 0) {
		return fmt.Errorf("lvs: server %q needs a finite weight, got %v", name, weight)
	}
	if weight < 0 {
		return fmt.Errorf("lvs: negative weight %v", weight)
	}
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
	i, err := b.lookup(name)
	if err != nil {
		return false, err
	}
	return b.servers[i].quiesced, nil
}

// ActiveConns returns a server's current connection count.
func (b *Balancer) ActiveConns(name string) (int, error) {
	i, err := b.lookup(name)
	if err != nil {
		return 0, err
	}
	return b.servers[i].active, nil
}

// Assigned returns the total requests ever assigned to a server.
func (b *Balancer) Assigned(name string) (uint64, error) {
	i, err := b.lookup(name)
	if err != nil {
		return 0, err
	}
	return b.servers[i].assigned, nil
}

// Servers returns the registered server names in registration order.
func (b *Balancer) Servers() []string {
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
	i, err := b.assign(class)
	if err != nil {
		return "", err
	}
	return b.servers[i].name, nil
}

// AssignIndex is AssignClass returning the server's index instead of
// its name, for callers that keep per-server state in a slice.
func (b *Balancer) AssignIndex(class string) (int, error) {
	return b.assign(class)
}

// assign takes the tree's root: the least key, ties going to the
// earliest-registered server. Only when that server blocks the class
// does it fall back to scan.
func (b *Balancer) assign(class string) (int, error) {
	if b.size == 0 || b.keys[1] == infBits {
		return 0, ErrNoServer
	}
	best := int(b.idxs[1])
	if b.servers[best].blocked[class] {
		if best = b.scan(class); best < 0 {
			return 0, ErrNoServer
		}
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

// scan returns the first strict minimum among the servers that accept
// class, or -1 if none is eligible. The class-block map is consulted
// only for a server that would otherwise take the lead.
func (b *Balancer) scan(class string) int {
	best, bestKey := -1, infBits
	for i, k := range b.keys[b.size : b.size+len(b.servers)] {
		if k < bestKey && !b.servers[i].blocked[class] {
			best, bestKey = i, k
		}
	}
	return best
}

// SetClassBlocked marks a request class as refused (or accepted again)
// by a server.
func (b *Balancer) SetClassBlocked(name, class string, blocked bool) error {
	if class == "" {
		return fmt.Errorf("lvs: empty class")
	}
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
	i, err := b.lookup(name)
	if err != nil {
		return err
	}
	return b.done(i, 1)
}

// DoneIndex releases n connections (n >= 1) on a server addressed by
// index, as n calls of Done would: if fewer than n are active it
// releases them all and reports that the server has none left. A
// release never raises the peak, so a caller that makes no assignment
// between completions may release them in one call.
func (b *Balancer) DoneIndex(i, n int) error {
	if i < 0 || i >= len(b.servers) || b.servers[i].removed {
		return fmt.Errorf("lvs: unknown server index %d", i)
	}
	if n < 1 {
		return fmt.Errorf("lvs: release count %d, want at least 1", n)
	}
	return b.done(i, n)
}

func (b *Balancer) done(i, n int) error {
	s := &b.servers[i]
	released := min(n, s.active)
	s.active -= released
	b.rekey(i)
	if released < n {
		return fmt.Errorf("lvs: server %q has no active connections", s.name)
	}
	return nil
}

// TotalWeight sums the weights of non-quiesced servers; Freon's weight
// arithmetic accounts "for the weights of all servers".
func (b *Balancer) TotalWeight() float64 {
	var sum float64
	for i := range b.servers {
		if s := &b.servers[i]; !s.quiesced {
			sum += s.weight
		}
	}
	return sum
}
