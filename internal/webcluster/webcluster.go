// Package webcluster emulates the paper's evaluation substrate: a Web
// server cluster behind an LVS load balancer serving a synthetic trace
// with 30% dynamic-content requests (a CGI script computing for 25 ms)
// and 70% static requests. The emulation advances in one-second ticks
// in lockstep with the Mercury solver: each tick assigns the second's
// arrivals through the balancer, advances per-server FIFO queues, and
// reports per-server CPU and disk utilizations for the thermal model,
// plus served/dropped counts for throughput accounting.
package webcluster

import (
	"fmt"
	"sort"
	"time"

	"github.com/darklab/mercury/internal/lvs"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
	"github.com/darklab/mercury/internal/workload"
)

// Request content classes used for content-aware distribution: the
// balancer can keep CPU-heavy dynamic requests away from servers with
// hot CPUs (Section 4.3's two-stage policy).
const (
	ClassDynamic = "dynamic"
	ClassStatic  = "static"
)

// Config sets the request cost model.
type Config struct {
	// DynamicCPU is the CPU demand of a dynamic (CGI) request;
	// default 25ms, the paper's script.
	DynamicCPU time.Duration
	// StaticCPU is the CPU demand of a static request; default 2ms.
	StaticCPU time.Duration
	// StaticDisk is the disk demand of a static request; default 8ms.
	StaticDisk time.Duration
	// QueueCap bounds each server's outstanding requests (in service +
	// queued); beyond it new assignments are refused. Default 200.
	QueueCap int
	// SlotsPerSecond is the number of service sub-slots per tick.
	// Requests are assigned in their arrival sub-slot and connections
	// release at sub-slot boundaries, so concurrent-connection counts
	// (which Freon caps) reflect real in-flight concurrency rather
	// than whole-second batches. Default 10 (100 ms slots).
	SlotsPerSecond int
}

func (c Config) withDefaults() Config {
	if c.DynamicCPU <= 0 {
		c.DynamicCPU = 25 * time.Millisecond
	}
	if c.StaticCPU <= 0 {
		c.StaticCPU = 2 * time.Millisecond
	}
	if c.StaticDisk <= 0 {
		c.StaticDisk = 8 * time.Millisecond
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 200
	}
	if c.SlotsPerSecond <= 0 {
		c.SlotsPerSecond = 10
	}
	return c
}

// MeanCPUPerRequest returns the average CPU seconds one request costs
// under the given dynamic-content share; experiment setup uses it to
// size arrival rates for a target utilization.
func (c Config) MeanCPUPerRequest(dynamicShare float64) float64 {
	c = c.withDefaults()
	// The conversions round each product, so no architecture fuses
	// the sum into a multiply-add.
	return float64(dynamicShare*c.DynamicCPU.Seconds()) + float64((1-dynamicShare)*c.StaticCPU.Seconds())
}

type pending struct {
	cpuLeft float64 // seconds of CPU work remaining
	disk    float64 // seconds of disk work, queued on completion
	dynamic bool
}

type server struct {
	name  string
	on    bool
	speed float64 // service-rate factor (1 = nominal); DVFS emulation
	// queue[head:] is the FIFO of outstanding requests. Serving
	// advances head; TickSecond compacts in place once per tick, so
	// head is 0 between ticks.
	queue []pending
	head  int
	disk  float64 // disk backlog, seconds

	lastCPU  units.Fraction
	lastDisk units.Fraction

	// Busy time in the tick in progress, reset by TickSecond.
	busyCPU  float64
	busyDisk float64
}

func (s *server) conns() int { return len(s.queue) - s.head }

// ServerTick is one server's activity during a tick.
type ServerTick struct {
	CPUUtil   units.Fraction
	DiskUtil  units.Fraction
	Assigned  int
	Completed int
	// CompletedDynamic counts the dynamic share of Completed; a
	// two-tier composition turns these into backend jobs.
	CompletedDynamic int
	Dropped          int
	Conns            int // outstanding requests at end of tick
}

// Tick is one emulated second of cluster activity.
type Tick struct {
	Arrived   int
	Dropped   int
	Completed int
	// PerServer holds one entry per server in registration order, the
	// order of the machines New was given. The cluster owns it: it is
	// valid until the next TickSecond.
	PerServer []ServerTick
}

// Totals accumulates over a whole run.
type Totals struct {
	Arrived   uint64
	Completed uint64
	Dropped   uint64
}

// DropRate returns the dropped share of arrived requests.
func (t Totals) DropRate() float64 {
	if t.Arrived == 0 {
		return 0
	}
	return float64(t.Dropped) / float64(t.Arrived)
}

// Cluster is the emulated web cluster. Servers are addressed by their
// position in registration order, which New makes equal to their
// index on the balancer; names are resolved once per control-plane
// call. Like its balancer, a Cluster is driven from one goroutine.
type Cluster struct {
	cfg     Config
	bal     *lvs.Balancer
	index   map[string]int
	servers []server
	// ticks is the tick in progress, one entry per server, and
	// TickSecond's PerServer.
	ticks []ServerTick
	// slotEnd[s] is the least offset into a second that lies past
	// sub-slot s (see slotBounds).
	slotEnd []time.Duration
	totals  Totals
}

// New builds a cluster over the given balancer, registering every
// machine with weight 1. The balancer must not have had servers
// registered before: the cluster's servers are its only ones.
func New(bal *lvs.Balancer, machines []string, cfg Config) (*Cluster, error) {
	if len(machines) == 0 {
		return nil, fmt.Errorf("webcluster: no machines")
	}
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:     cfg,
		bal:     bal,
		index:   make(map[string]int, len(machines)),
		servers: make([]server, 0, len(machines)),
		ticks:   make([]ServerTick, len(machines)),
		slotEnd: slotBounds(cfg.SlotsPerSecond),
	}
	for i, m := range machines {
		if _, dup := c.index[m]; dup {
			return nil, fmt.Errorf("webcluster: duplicate machine %q", m)
		}
		if err := bal.AddServer(m, 1); err != nil {
			return nil, err
		}
		if bi, _ := bal.Index(m); bi != i {
			return nil, fmt.Errorf("webcluster: balancer already had servers registered (%q got index %d, want %d)", m, bi, i)
		}
		c.index[m] = i
		c.servers = append(c.servers, server{name: m, on: true, speed: 1})
	}
	return c, nil
}

// Balancer returns the underlying balancer (Freon's control surface).
func (c *Cluster) Balancer() *lvs.Balancer { return c.bal }

// Machines returns the machine names in registration order.
func (c *Cluster) Machines() []string {
	names := make([]string, len(c.servers))
	for i := range c.servers {
		names[i] = c.servers[i].name
	}
	return names
}

func (c *Cluster) server(name string) (*server, error) {
	i, ok := c.index[name]
	if !ok {
		return nil, fmt.Errorf("webcluster: unknown machine %q", name)
	}
	return &c.servers[i], nil
}

// Conns returns a server's outstanding request count.
func (c *Cluster) Conns(name string) (int, error) {
	s, err := c.server(name)
	if err != nil {
		return 0, err
	}
	return s.conns(), nil
}

// On reports whether a server is powered.
func (c *Cluster) On(name string) (bool, error) {
	s, err := c.server(name)
	if err != nil {
		return false, err
	}
	return s.on, nil
}

// SetSpeed scales a server's CPU service rate, emulating local
// voltage/frequency scaling (Section 4.3's comparison point): a server
// at speed 0.5 needs twice the CPU time per request. Speed must be in
// (0, 1], which NaN is not.
func (c *Cluster) SetSpeed(name string, speed float64) error {
	s, err := c.server(name)
	if err != nil {
		return err
	}
	if !(speed > 0 && speed <= 1) {
		return fmt.Errorf("webcluster: machine %q speed %v outside (0,1]", name, speed)
	}
	s.speed = speed
	return nil
}

// Speed returns a server's current service-rate factor.
func (c *Cluster) Speed(name string) (float64, error) {
	s, err := c.server(name)
	if err != nil {
		return 0, err
	}
	return s.speed, nil
}

// SetPower turns a server on or off. Turning a server off drops its
// outstanding requests (Freon-EC avoids this by quiescing and draining
// first; the traditional red-line policy does not).
func (c *Cluster) SetPower(name string, on bool) error {
	s, err := c.server(name)
	if err != nil {
		return err
	}
	if s.on == on {
		return nil
	}
	s.on = on
	if !on {
		if n := s.conns(); n > 0 {
			// The balancer holds one connection per queued request, so
			// releasing the whole queue cannot fail.
			_ = c.bal.DoneIndex(c.index[name], n)
			c.totals.Dropped += uint64(n)
		}
		s.queue, s.head = s.queue[:0], 0
		s.disk = 0
		s.lastCPU, s.lastDisk = 0, 0
	}
	return nil
}

// Utilizations returns a server's utilizations from the most recent
// tick, in the shape monitord reports to the solver.
func (c *Cluster) Utilizations(name string) (map[model.UtilSource]units.Fraction, error) {
	s, err := c.server(name)
	if err != nil {
		return nil, err
	}
	return map[model.UtilSource]units.Fraction{
		model.UtilCPU:  s.lastCPU,
		model.UtilDisk: s.lastDisk,
	}, nil
}

// Totals returns the run's cumulative counts.
func (c *Cluster) Totals() Totals { return c.totals }

// slotOf is the service sub-slot, of slots per second, that an arrival
// at offset at into its second falls in.
func slotOf(at time.Duration, slots int) int {
	frac := float64(at%time.Second) / float64(time.Second)
	s := int(frac * float64(slots))
	if s >= slots {
		s = slots - 1
	}
	return s
}

// slotBounds returns, for each of slots sub-slots s, the least offset
// into a second whose slotOf is past s, so an arrival belongs to s or
// an earlier sub-slot iff its offset is below bound s. The last bound
// is a whole second. slotOf is monotone in the offset, so bisection
// finds each bound exactly.
func slotBounds(slots int) []time.Duration {
	end := make([]time.Duration, slots)
	for s := range slots - 1 {
		end[s] = time.Duration(sort.Search(int(time.Second), func(r int) bool {
			return slotOf(time.Duration(r), slots) > s
		}))
	}
	end[slots-1] = time.Second
	return end
}

// TickSecond advances the cluster by one second, split into
// SlotsPerSecond service sub-slots: each arrival is assigned through
// the balancer in its arrival sub-slot, and every powered server then
// executes that slot's share of CPU and disk service, releasing
// completed connections at the slot boundary. No assignment happens
// while servers serve, so each server's completions in a slot are
// released in one call.
func (c *Cluster) TickSecond(arrivals []workload.Request) Tick {
	tick := Tick{PerServer: c.ticks}
	clear(c.ticks)
	for i := range c.servers {
		s := &c.servers[i]
		s.busyCPU, s.busyDisk = 0, 0
	}

	slotDur := 1.0 / float64(c.cfg.SlotsPerSecond)
	static := pending{cpuLeft: c.cfg.StaticCPU.Seconds(), disk: c.cfg.StaticDisk.Seconds()}
	dynamic := pending{cpuLeft: c.cfg.DynamicCPU.Seconds(), dynamic: true}

	idx := 0
	for _, end := range c.slotEnd {
		// Assign this sub-slot's arrivals.
		for idx < len(arrivals) && arrivals[idx].At%time.Second < end {
			req := arrivals[idx]
			idx++
			tick.Arrived++
			c.totals.Arrived++
			class := ClassStatic
			if req.Dynamic {
				class = ClassDynamic
			}
			i, err := c.bal.AssignIndex(class)
			if err != nil {
				tick.Dropped++
				c.totals.Dropped++
				continue
			}
			s := &c.servers[i]
			if !s.on || s.conns() >= c.cfg.QueueCap {
				// Powered-off servers should be quiesced or
				// zero-weighted; if one is still picked, or the queue
				// is full, refuse.
				_ = c.bal.DoneIndex(i, 1)
				tick.Dropped++
				c.totals.Dropped++
				c.ticks[i].Dropped++
				continue
			}
			p := static
			if req.Dynamic {
				p = dynamic
			}
			s.queue = append(s.queue, p)
			c.ticks[i].Assigned++
		}

		// Serve one sub-slot on every powered server.
		for i := range c.servers {
			s, st := &c.servers[i], &c.ticks[i]
			if !s.on {
				continue
			}
			budget := slotDur * s.speed
			done := 0
			for s.head < len(s.queue) && budget > 0 {
				head := &s.queue[s.head]
				if head.cpuLeft <= budget {
					budget -= head.cpuLeft
					s.disk += head.disk
					if head.dynamic {
						st.CompletedDynamic++
					}
					s.head++
					done++
				} else {
					head.cpuLeft -= budget
					budget = 0
				}
			}
			if done > 0 {
				st.Completed += done
				c.totals.Completed += uint64(done)
				tick.Completed += done
				_ = c.bal.DoneIndex(i, done) // each completed request held a connection
			}
			// The conversion rounds the product, so no architecture
			// fuses it into a multiply-subtract.
			s.busyCPU += (float64(slotDur*s.speed) - budget) / s.speed

			diskServed := s.disk
			if diskServed > slotDur {
				diskServed = slotDur
			}
			s.disk -= diskServed
			s.busyDisk += diskServed
		}
	}

	for i := range c.servers {
		s, st := &c.servers[i], &c.ticks[i]
		s.queue = s.queue[:copy(s.queue, s.queue[s.head:])]
		s.head = 0
		st.CPUUtil = units.Fraction(s.busyCPU).Clamp()
		st.DiskUtil = units.Fraction(s.busyDisk).Clamp()
		s.lastCPU, s.lastDisk = st.CPUUtil, st.DiskUtil
		st.Conns = len(s.queue)
	}
	return tick
}
