package solver

import (
	"fmt"
	"math"
	"sort"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

// This file holds the horizontal partitioning machinery: a room graph
// split by physical region across N cooperating solver instances
// (Config.Regions). Every instance compiles the FULL cluster — global
// machine indices, sources, and initial temperatures agree across all
// of them — but steps only the machines of its own region. Machines of
// other regions exist as exhaust-temperature placeholders that the
// owning instance refreshes once per tick through the boundary
// exchange (ExportBoundary / ImportBoundaryTemps, carried between
// solverd processes as wire.BoundaryExchange datagrams).
//
// Because mixInlet reads the PREVIOUS step's exhaust of upstream
// machines (one-step transport delay), the exchange is a simple
// lockstep protocol with no cyclic deadlock: after every instance has
// stepped tick T it publishes its boundary exhausts, and no instance
// steps tick T+1 before applying every peer's tick-T exhausts. Stepping
// the same cluster through the same inputs therefore yields
// temperatures bit-identical to a single unpartitioned solver — the
// partition only decides which process a machine lives in, exactly as
// the worker-pool shards only decide which worker's cache it lives in.

// ErrRemoteMachine is returned when a query or fiddle targets a
// machine owned by a different region of a partitioned cluster
// (Config.Regions): only the owning solver instance may read or fiddle
// it, everything else must be routed to that region's daemon.
type ErrRemoteMachine struct {
	Machine string
	Region  int
}

func (e *ErrRemoteMachine) Error() string {
	return fmt.Sprintf("solver: machine %q is owned by region %d", e.Machine, e.Region)
}

// regionState is a solverCore's region partitioning; the zero value
// means unpartitioned (count == 0, every machine owned).
type regionState struct {
	index    int
	count    int
	regionOf []int32 // machine index -> owning region
	peers    []*boundaryPeer
	peerOf   map[int]*boundaryPeer
}

// boundaryPeer is the pair of boundary sets shared with one other
// region: out lists owned machines whose exhaust feeds the peer's
// inlets, in lists the peer's machines whose exhaust feeds ours. Both
// are global machine indices, ascending, fixed at New.
type boundaryPeer struct {
	region int
	out    []int32
	in     []int32
	outSet map[int32]bool
	inSet  map[int32]bool
}

// PartitionRegions splits a cluster's machines into n physical regions
// for cooperating solver instances (Config.Regions). It reuses the
// worker pool's component analysis: room-recirculation components are
// kept together whenever they fit, so cross-region air edges occur
// only inside the at most n-1 components that straddle a region cut —
// the declared boundaries the instances then exchange each tick.
func PartitionRegions(c *model.Cluster, n int) ([][]string, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("solver: cannot partition into %d regions", n)
	}
	if n > len(c.Machines) {
		return nil, fmt.Errorf("solver: cannot split %d machines into %d regions", len(c.Machines), n)
	}
	midx := make(map[string]int, len(c.Machines))
	for i, m := range c.Machines {
		midx[m.Name] = i
	}
	adj := make([][]int32, len(c.Machines))
	for _, e := range c.Edges {
		u, uok := midx[e.From]
		v, vok := midx[e.To]
		if uok && vok && u != v {
			adj[u] = append(adj[u], int32(v))
			adj[v] = append(adj[v], int32(u))
		}
	}
	shards := partitionShards(len(c.Machines), n, adj)
	regions := make([][]string, len(shards))
	for i, sh := range shards {
		names := make([]string, len(sh.idx))
		for j, mi := range sh.idx {
			names[j] = c.Machines[mi].Name
		}
		regions[i] = names
	}
	return regions, nil
}

// compileRegions validates Config.Regions against the compiled
// machines and builds the region state: ownership, the owned-machine
// list the queries and the stepping loop iterate, and the per-peer
// boundary sets induced by cross-region room edges.
func (s *solverCore) compileRegions() error {
	regs := s.cfg.Regions
	if i := s.cfg.RegionIndex; i != 0 && (i < 0 || i >= len(regs)) {
		return fmt.Errorf("solver: RegionIndex %d out of range for %d regions", i, len(regs))
	}
	if len(regs) == 0 {
		s.owned = make([]int32, len(s.ms))
		for i := range s.owned {
			s.owned[i] = int32(i)
		}
		return nil
	}
	regionOf := make([]int32, len(s.ms))
	for i := range regionOf {
		regionOf[i] = -1
	}
	for r, names := range regs {
		for _, name := range names {
			ref, ok := s.byName[name]
			if !ok {
				return fmt.Errorf("solver: region %d lists unknown machine %q", r, name)
			}
			mi := ref.mi
			if regionOf[mi] != -1 {
				return fmt.Errorf("solver: machine %q is in regions %d and %d", name, regionOf[mi], r)
			}
			regionOf[mi] = int32(r)
		}
	}
	for i, r := range regionOf {
		if r == -1 {
			return fmt.Errorf("solver: machine %q is not assigned to any region", s.ms[i].name)
		}
	}
	me := int32(s.cfg.RegionIndex)
	s.region = regionState{
		index:    s.cfg.RegionIndex,
		count:    len(regs),
		regionOf: regionOf,
		peerOf:   map[int]*boundaryPeer{},
	}
	for i := range s.ms {
		m := &s.ms[i]
		m.region = regionOf[i]
		m.remote = regionOf[i] != me
		if !m.remote {
			s.owned = append(s.owned, int32(i))
		} else {
			ref := s.byName[m.name]
			ref.remote = true
			s.byName[m.name] = ref
		}
	}
	peer := func(r int32) *boundaryPeer {
		p := s.region.peerOf[int(r)]
		if p == nil {
			p = &boundaryPeer{region: int(r), outSet: map[int32]bool{}, inSet: map[int32]bool{}}
			s.region.peerOf[int(r)] = p
			s.region.peers = append(s.region.peers, p)
		}
		return p
	}
	// Every cross-region machine->machine air edge appears exactly once
	// in the destination's roomIn list; classify it from whichever side
	// is ours.
	for i := range s.ms {
		for _, e := range s.ms[i].roomIn {
			if e.kind != fromMachine {
				continue
			}
			u := int32(e.ref)
			if regionOf[u] == regionOf[i] {
				continue
			}
			if regionOf[i] == me {
				p := peer(regionOf[u])
				if !p.inSet[u] {
					p.inSet[u] = true
					p.in = append(p.in, u)
				}
			} else if regionOf[u] == me {
				p := peer(regionOf[i])
				if !p.outSet[u] {
					p.outSet[u] = true
					p.out = append(p.out, u)
				}
			}
		}
	}
	sort.Slice(s.region.peers, func(a, b int) bool { return s.region.peers[a].region < s.region.peers[b].region })
	for _, p := range s.region.peers {
		sortInt32(p.out)
		sortInt32(p.in)
	}
	return nil
}

// partitionOwnedShards builds the worker-pool shards over the owned
// machines only: adjacency is compacted to local indices (cross-region
// edges are the boundary exchange's business, not the pool's),
// partitioned exactly like the unpartitioned case, and the shard
// contents mapped back to global machine indices.
func (s *solverCore) partitionOwnedShards() []shard {
	ownedIdx := s.owned
	local := make([]int32, len(s.ms))
	for i := range local {
		local[i] = -1
	}
	for li, gi := range ownedIdx {
		local[gi] = int32(li)
	}
	adj := make([][]int32, len(ownedIdx))
	for li, gi := range ownedIdx {
		for _, e := range s.ms[gi].roomIn {
			if e.kind != fromMachine {
				continue
			}
			lj := local[e.ref]
			if lj >= 0 && lj != int32(li) {
				adj[li] = append(adj[li], lj)
				adj[lj] = append(adj[lj], int32(li))
			}
		}
	}
	shards := partitionShards(len(ownedIdx), s.workers, adj)
	for _, sh := range shards {
		for k, li := range sh.idx {
			sh.idx[k] = ownedIdx[li]
		}
	}
	return shards
}

// Region reports this instance's region index and the total number of
// regions; a total of 0 means the cluster is unpartitioned.
func (s *Solver) Region() (index, total int) {
	return s.region.index, s.region.count
}

// MachineRegion reports which region owns a machine (always 0 when the
// cluster is unpartitioned). Unlike the queries, it answers for remote
// machines too: routers use it to pick the owning daemon.
func (s *Solver) MachineRegion(name string) (int, error) {
	ref, ok := s.byName[name]
	if !ok {
		return 0, &ErrUnknown{Kind: "machine", Name: name}
	}
	return int(s.ms[ref.mi].region), nil
}

// BoundaryPeers lists the regions this instance exchanges boundary
// exhaust temperatures with, ascending. A peer appears when at least
// one room-level air edge crosses the shared region cut in either
// direction.
func (s *Solver) BoundaryPeers() []int {
	out := make([]int, len(s.region.peers))
	for i, p := range s.region.peers {
		out[i] = p.region
	}
	return out
}

// BoundaryOutTo returns the global machine indices (cluster
// compilation order) of owned machines whose exhaust feeds machines of
// peer, ascending. The slice is fixed at New; callers must not modify
// it.
func (s *Solver) BoundaryOutTo(peer int) []int32 {
	if p := s.region.peerOf[peer]; p != nil {
		return p.out
	}
	return nil
}

// BoundaryInFrom returns the global machine indices of peer's machines
// whose exhaust feeds owned inlets, ascending. The slice is fixed at
// New; callers must not modify it.
func (s *Solver) BoundaryInFrom(peer int) []int32 {
	if p := s.region.peerOf[peer]; p != nil {
		return p.in
	}
	return nil
}

// ExportBoundary fills dst with the current exhaust temperatures of
// BoundaryOutTo(peer), in order, returning the count written (stopping
// early if dst is short). Call it after a step to capture the tick's
// published exhausts.
func (s *Solver) ExportBoundary(peer int, dst []float64) int {
	p := s.region.peerOf[peer]
	if p == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, mi := range p.out {
		if n >= len(dst) {
			break
		}
		dst[n] = s.exhaust[mi]
		n++
	}
	return n
}

// ImportBoundaryTemps installs boundary exhaust temperatures received
// from peer. idx and temps are parallel; every index must belong to
// peer's BoundaryInFrom set, but any subset is accepted, so a large
// boundary may arrive chunked across datagrams. Every temperature must
// be valid (units.Celsius.Valid), and an import with one that is not
// applies none of them. A bitwise change
// re-activates the all-quiescent fast path (anyDirty), and the next
// inlet phase re-activates exactly the downstream machines whose mix
// actually moved — quiescence stays bit-exact across the cut.
func (s *Solver) ImportBoundaryTemps(peer int, idx []int32, temps []float64) error {
	if len(idx) != len(temps) {
		return fmt.Errorf("solver: boundary import has %d indices but %d temperatures", len(idx), len(temps))
	}
	p := s.region.peerOf[peer]
	if p == nil {
		return fmt.Errorf("solver: region %d is not a boundary peer", peer)
	}
	for k, mi := range idx {
		if !p.inSet[mi] {
			return fmt.Errorf("solver: machine index %d is not in region %d's boundary set", mi, peer)
		}
		if t := units.Celsius(temps[k]); !t.Valid() {
			return fmt.Errorf("solver: invalid boundary exhaust %v for machine index %d", float64(t), mi)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, mi := range idx {
		if math.Float64bits(temps[k]) != math.Float64bits(s.exhaust[mi]) {
			s.exhaust[mi] = temps[k]
			s.anyDirty = true
		}
	}
	return nil
}
