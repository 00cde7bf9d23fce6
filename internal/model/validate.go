package model

import (
	"fmt"
	"hash/maphash"
	"math"
	"slices"
)

// validator holds the scratch one machine's validation needs. A
// cluster validates every machine through one validator, so a room of
// any size validates with a constant number of allocations instead of
// a map per machine.
type validator struct {
	// names maps each node name to its position: components first,
	// then air nodes. In airTopoOrder it maps every name an air node
	// or air edge mentions to its index in ids.
	names nameTable
	ids   []string

	// Per air node (per index, in airTopoOrder).
	out   []float64 // sum of outgoing fractions
	has   []bool    // has an outgoing edge
	indeg []int32
	start []int32 // out-edges of node n are adj[start[n]:start[n+1]], in AirEdges order

	// Per air edge, endpoints as air-node indices.
	from, to []int32
	adj      []int32

	seeds []int32 // the air nodes in declaration order, as indices
	queue []int32 // Kahn queue; once drained, the topological order
}

// id returns name's index in ids, appending the name if it is new.
func (v *validator) id(name string) int32 {
	n := v.names.put(name, len(v.ids))
	if n == len(v.ids) {
		v.ids = append(v.ids, name)
	}
	return int32(n)
}

// link counts the in-degrees of n nodes and lays the edges in from/to
// out per origin node, keeping each node's out-edges in edge order.
func (v *validator) link(n int) {
	v.indeg = zeroed(v.indeg, n)
	v.start = zeroed(v.start, n+1)
	for i, f := range v.from {
		v.indeg[v.to[i]]++
		v.start[f+1]++
	}
	for i := 1; i <= n; i++ {
		v.start[i] += v.start[i-1]
	}
	v.adj = zeroed(v.adj, len(v.from))
	for i, f := range v.from {
		v.adj[v.start[f]] = v.to[i]
		v.start[f]++
	}
	// Each start[i] now holds node i's end; shift them back to starts.
	copy(v.start[1:], v.start[:n])
	v.start[0] = 0
}

// topo drains the Kahn queue seeded with the zero in-degree seeds in
// declaration order, leaving the visit order in queue, and reports
// whether every seed was visited.
func (v *validator) topo() bool {
	q := slices.Grow(v.queue[:0], len(v.indeg))
	for _, s := range v.seeds {
		if v.indeg[s] == 0 {
			q = append(q, s)
		}
	}
	for head := 0; head < len(q); head++ {
		n := q[head]
		for _, to := range v.adj[v.start[n]:v.start[n+1]] {
			v.indeg[to]--
			if v.indeg[to] == 0 {
				q = append(q, to)
			}
		}
	}
	v.queue = q
	return len(q) == len(v.seeds)
}

func errAirCycle(m *Machine) error {
	return fmt.Errorf("model: machine %s: air-flow graph has a cycle", m.Name)
}

// nameTable is an open-addressed index from names to positions in a
// caller's list. reset sizes it for a known count with one allocation
// however many names it holds (a presized Go map allocates a table per
// thousand or so), and reuses that allocation when the next list is no
// longer.
type nameTable struct {
	seed  maphash.Seed
	slots []nameSlot
}

type nameSlot struct {
	name string
	pos  int32 // position+1; 0 marks an empty slot
}

// reset empties the table and sizes it to stay at most half full with
// n names. Callers put no more than n: a lookup stops only at its name
// or an empty slot.
func (t *nameTable) reset(n int) {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	if cap(t.slots) < size {
		t.seed = maphash.MakeSeed()
		t.slots = make([]nameSlot, size)
		return
	}
	t.slots = t.slots[:size]
	clear(t.slots)
}

// put records name at pos unless the table holds it already, and
// returns the name's position either way.
func (t *nameTable) put(name string, pos int) int {
	s := t.slot(name)
	if s.pos == 0 {
		*s = nameSlot{name: name, pos: int32(pos) + 1}
	}
	return int(s.pos) - 1
}

// find returns name's position, or -1.
func (t *nameTable) find(name string) int {
	return int(t.slot(name).pos) - 1
}

// slot returns the slot holding name, or the empty slot where it
// would go.
func (t *nameTable) slot(name string) *nameSlot {
	mask := uint64(len(t.slots) - 1)
	for i := maphash.String(t.seed, name) & mask; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.pos == 0 || s.name == name {
			return s
		}
	}
}

// zeroed returns s resized to n zero values, reusing its array when it
// is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// finite reports whether x is neither NaN nor infinite, as
// units.Celsius.Valid and units.Fraction.Valid require of theirs: a
// NaN passes every ordered comparison check (x <= 0, x < 0) unnoticed.
func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}
