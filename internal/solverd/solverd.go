// Package solverd wraps a solver in Mercury's UDP protocol: it accepts
// utilization updates from monitord instances, serves emulated sensor
// reads to the sensor library, and applies fiddle operations — the
// on-line mode of Figure 2 where "the applications or system software
// can query the solver for temperatures".
package solverd

import (
	"errors"
	"fmt"
	"math"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"github.com/darklab/mercury/internal/alert"
	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/fiddle"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/surrogate"
	"github.com/darklab/mercury/internal/telemetry"
	"github.com/darklab/mercury/internal/wire"
)

// Stats counts the daemon's traffic and stepping progress; all fields
// are updated atomically and safe to read while serving.
type Stats struct {
	UtilUpdates atomic.Uint64
	SensorReads atomic.Uint64
	FiddleOps   atomic.Uint64
	Malformed   atomic.Uint64
	// SolverSteps counts completed Ticks, whether StartTicker's loop or
	// a lockstep harness made them; direct solver stepping is not
	// included. Tick bumps it after the step's boundary publish and span,
	// so a poller that sees the count may move on.
	SolverSteps atomic.Uint64
	// MissedTicks counts ticker fires that were coalesced or dropped
	// because a step overran the step interval; each missed tick is
	// made up by a catch-up step, so SolverSteps still tracks elapsed
	// clock time.
	MissedTicks atomic.Uint64
	// UtilBatches counts utilization datagrams (every monitord sends
	// MsgUtilBatch, a per-machine one a batch of one); the individual
	// machine reports inside them are counted in UtilUpdates.
	UtilBatches atomic.Uint64
	// BoundaryOut / BoundaryIn count boundary exchange datagrams sent
	// to and staged from peer regions (sharded runs only).
	BoundaryOut atomic.Uint64
	BoundaryIn  atomic.Uint64
	// BoundaryMissed counts barrier waits abandoned at the deadline and
	// staged boundaries the solver refused to import; any nonzero value
	// means the run lost lockstep bit-identity.
	BoundaryMissed atomic.Uint64
}

// Server is a running solver daemon.
type Server struct {
	sol    *solver.Solver
	conn   *net.UDPConn
	clk    clock.Clock
	stats  Stats
	stepFn func() // test seam; defaults to sol.Step
	tracer *causal.Tracer

	// Telemetry (nil unless WithTelemetry). fillFn is sol.ReadAllTemps
	// hoisted into a field once so the sampling path allocates nothing.
	reg    *telemetry.Registry
	events *telemetry.EventLog
	temps  *telemetry.TempTable
	fillFn func([]float64) int

	// Boundary exchange with peer regions (nil unless SetPeers);
	// exportBuf is scratch for ExportBoundary, touched only by the
	// stepping ticker.
	peers     *boundaryState
	exportBuf []float64

	// Surrogate fast path (nil unless WithSurrogate). stepMu serializes
	// whole solver ticks (step + trajectory record) against what-if
	// kernel fallbacks: solver.WhatIf rewinds state but is not atomic
	// with respect to stepping, so a tick landing mid-round-trip would
	// step hypothetical physics and corrupt the recorded trajectory.
	surro  *surrogate.Model
	stepMu sync.Mutex

	// Flight recorder (nil unless WithRecorder).
	rec Recorder

	// Alert engine (nil unless WithAlerts; a nil engine is a no-op on
	// every call, so the tick hook needs no guard).
	alerts *alert.Engine

	// Utilization ingest: names maps a machine name to its position in
	// machines (= sol.Machines()), the one string-keyed lookup a report
	// costs; everything after it — dedupe, apply, the UTL record, the
	// apply span — goes by that position and that string. batch and
	// refs are handleUtilBatch's decode scratch, touched only by Serve's
	// goroutine; refs[i] is the position of the i-th decoded report's
	// machine, -1 for one this solver does not own.
	names    map[string]int32
	machines []string
	batch    wire.UtilBatch
	refs     []int32

	// Lockstep wake-up (AwaitUtilUpdates): utilTarget is the parked
	// waiter's UtilUpdates target, MaxUint64 while nobody waits, and
	// applyUtil leaves a token in utilWake once the count reaches it.
	// utilGuard is the waiter's real-time guard, reused across waits.
	utilTarget atomic.Uint64
	utilWake   chan struct{}
	utilGuard  *time.Timer

	// Sensor serving scratch, touched only by Serve's goroutine: the
	// decoded request, whose names are interned against names and
	// nodeNames (each node name a read has found), its reply, and the
	// encoded reply.
	nodeNames map[string]string
	manyReq   wire.SensorReadMany
	manyRep   wire.SensorReplyMany
	replyBuf  []byte

	mu        sync.Mutex
	lastSeq   []seqMark         // by machine position
	strangers map[string]uint32 // last seq of machines this solver does not own

	stopTick chan struct{}
	tickWG   sync.WaitGroup
	tickOnce sync.Once
}

// Option configures a Server at Listen time.
type Option func(*Server)

// WithClock makes the stepping ticker run on clk instead of the real
// clock; virtual clocks give deterministic warp-speed online runs.
func WithClock(clk clock.Clock) Option {
	return func(s *Server) { s.clk = clk }
}

// WithTelemetry attaches a metrics registry and event log. The
// daemon's traffic counters are exported as read-at-scrape funcs over
// the existing atomics (zero extra cost on the datagram path), node
// temperatures are sampled into a ring table off the stepping ticker,
// and fiddle applications and missed ticks are logged as events.
// Either argument may be nil to skip that half.
func WithTelemetry(reg *telemetry.Registry, events *telemetry.EventLog) Option {
	return func(s *Server) { s.reg = reg; s.events = events }
}

// WithTracer attaches a causal tracer: utilization updates carrying a
// trace context get an apply span parented to the originating sample,
// traced sensor reads get a serve span per probe, and every ticker
// step gets its own step span. With no tracer the datagram and
// stepping paths are untouched.
func WithTracer(t *causal.Tracer) Option {
	return func(s *Server) { s.tracer = t }
}

// WithSurrogate attaches a fitted (or fitting) surrogate model over
// the same solver: the stepping ticker records a trajectory sample
// after every step, State grows a fit-quality section, the surrogate's
// counters join the metrics registry, and Server.WhatIf serves
// queries. The caller owns the model's fitting cadence (StartAutoFit)
// and shutdown.
func WithSurrogate(m *surrogate.Model) Option {
	return func(s *Server) { s.surro = m }
}

// Recorder is the flight-recorder surface solverd drives when one is
// attached (WithRecorder): run metadata and probe identity at Listen,
// every applied utilization update and fiddle op stamped with the
// solver tick they influence, boundary imports on sharded runs, and
// sampled temperature rows. *recordlog.Writer implements it; the
// indirection keeps solverd free of the recordlog dependency. All
// methods must be non-blocking and allocation-free (the recorder
// drops, never back-pressures).
type Recorder interface {
	RecordMeta(step time.Duration, machines int)
	SetProbes(probes []telemetry.TempProbe)
	RecordTempRow(at time.Duration, vals []float64)
	RecordUtil(tick uint64, machine string, seq uint32, entries []wire.UtilEntry)
	RecordFiddle(tick uint64, op *wire.FiddleOp)
	RecordBoundary(tick uint64, region int, idx []int32, temps []float64)
}

// WithRecorder attaches a durable flight recorder: the daemon records
// run metadata, applied util updates and fiddle ops (with their solver
// tick, making the file replayable by mercury-replay), boundary
// imports, and — when telemetry is on — probe identity and sampled
// temperature rows.
func WithRecorder(rec Recorder) Option {
	return func(s *Server) { s.rec = rec }
}

// WithAlerts attaches a compiled alert engine: the stepping ticker
// evaluates it in lockstep after every solver step (EvalTick(n) at
// virtual time n×step), and State grows thresholds and alert
// sections. The caller builds the engine (rules, probes, surrogate
// ETA hookup) and owns its exposure (/alerts, recorder sink).
func WithAlerts(eng *alert.Engine) Option {
	return func(s *Server) { s.alerts = eng }
}

// The temperature table keeps tempHistory samples per node, one
// every tempSampleEvery solver steps: an hour of history at a
// one-second step.
const (
	tempHistory     = 360
	tempSampleEvery = 10
)

// Listen binds a UDP socket (addr like "127.0.0.1:8367"; port 0 picks
// a free port) and returns a Server ready to Serve.
func Listen(addr string, sol *solver.Solver, opts ...Option) (*Server, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("solverd: %w", err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("solverd: %w", err)
	}
	s := &Server{
		sol:       sol,
		conn:      conn,
		clk:       clock.Real{},
		names:     map[string]int32{},
		machines:  sol.Machines(),
		strangers: map[string]uint32{},
		stopTick:  make(chan struct{}),
		utilWake:  make(chan struct{}, 1),
		nodeNames: map[string]string{},
	}
	for i, m := range s.machines {
		s.names[m] = int32(i)
	}
	s.utilTarget.Store(math.MaxUint64)
	s.lastSeq = make([]seqMark, len(s.machines))
	s.stepFn = sol.Step
	for _, o := range opts {
		o(s)
	}
	if s.reg != nil {
		s.registerMetrics()
	}
	if s.rec != nil {
		s.rec.RecordMeta(sol.StepSize(), len(sol.Machines()))
		if s.temps != nil {
			s.rec.SetProbes(s.temps.Probes())
			s.temps.SetSink(s.rec.RecordTempRow)
		}
	}
	return s, nil
}

// registerMetrics exports the daemon's counters and builds the
// temperature table.
func (s *Server) registerMetrics() {
	r := s.reg
	cf := func(name, help string, v *atomic.Uint64) {
		r.CounterFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	cf("mercury_solver_steps_total", "solver iterations taken by the stepping ticker", &s.stats.SolverSteps)
	cf("mercury_solver_missed_ticks_total", "ticker fires made up after step overrun", &s.stats.MissedTicks)
	cf("mercury_solver_util_updates_total", "utilization update datagrams applied", &s.stats.UtilUpdates)
	cf("mercury_solver_sensor_reads_total", "sensor probes read, one per probe of a many-read", &s.stats.SensorReads)
	cf("mercury_solver_fiddle_ops_total", "fiddle operations received", &s.stats.FiddleOps)
	cf("mercury_solver_malformed_total", "malformed or unknown datagrams", &s.stats.Malformed)
	cf("mercury_solver_util_batches_total", "utilization datagrams applied (a per-machine report is a batch of one)", &s.stats.UtilBatches)
	cf("mercury_solver_boundary_out_total", "boundary exchange datagrams sent to peer regions", &s.stats.BoundaryOut)
	cf("mercury_solver_boundary_in_total", "boundary exchange datagrams staged from peer regions", &s.stats.BoundaryIn)
	cf("mercury_solver_boundary_missed_total", "boundary barrier waits abandoned at the deadline or boundaries refused", &s.stats.BoundaryMissed)
	r.GaugeFunc("mercury_solver_energy_joules_total", "cluster-wide cumulative energy drawn",
		func() float64 { return float64(s.sol.TotalEnergy()) })
	if s.surro != nil {
		sf := func(name, help string, fn func() uint64) {
			r.CounterFunc(name, help, func() float64 { return float64(fn()) })
		}
		sf("mercury_surrogate_samples_total", "trajectory samples recorded for the surrogate", s.surro.SamplesTotal)
		sf("mercury_surrogate_fits_total", "surrogate model fits completed", s.surro.FitsTotal)
		sf("mercury_surrogate_queries_total", "surrogate what-if predictions attempted", s.surro.QueriesTotal)
		sf("mercury_surrogate_declines_total", "surrogate predictions declined as invalid", s.surro.DeclinesTotal)
		sf("mercury_surrogate_kernel_fallbacks_total", "declined what-ifs answered by the kernel", s.surro.KernelFallbacksTotal)
	}

	machines, nodes := s.sol.Probes()
	probes := make([]telemetry.TempProbe, len(machines))
	for i := range machines {
		probes[i] = telemetry.TempProbe{Machine: machines[i], Node: nodes[i]}
	}
	s.temps = telemetry.NewTempTable(probes, tempHistory)
	s.fillFn = s.sol.ReadAllTemps
}

// Addr returns the daemon's bound address.
func (s *Server) Addr() *net.UDPAddr { return s.conn.LocalAddr().(*net.UDPAddr) }

// Stats exposes the daemon's counters.
func (s *Server) Stats() *Stats { return &s.stats }

// Solver returns the wrapped solver (for co-located stepping loops).
func (s *Server) Solver() *solver.Solver { return s.sol }

// WhatIf answers a steady-state query from the surrogate in
// microseconds; when the surrogate declines and the caller allows it,
// the real kernel answers instead, serialized against the stepping
// ticker so the snapshot/step/rewind round trip never interleaves with
// a live tick. This is the handler behind the control plane's POST
// /whatif.
func (s *Server) WhatIf(q *surrogate.Query, fallback bool) (*surrogate.Answer, error) {
	if s.surro == nil {
		return nil, fmt.Errorf("solverd: no surrogate attached")
	}
	ans, err := s.surro.WhatIf(q, false)
	if err != nil || ans.Valid || !fallback {
		return ans, err
	}
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	return s.surro.WhatIf(q, true)
}

// StartTicker advances the solver in clock time, one Tick every solver
// step interval, until Close. Offline/experiment use drives the solver
// directly instead, and a lockstep harness calls Tick itself.
//
// The ticker keeps emulated time locked to the clock even when a step
// overruns the interval: time.Ticker silently coalesces fires under
// load, so each fire compares the steps taken so far against the
// elapsed clock time and catches up on any deficit, counting the
// made-up fires in Stats.MissedTicks. The ticker is registered
// synchronously, so a virtual-clock caller may Advance as soon as
// StartTicker returns.
func (s *Server) StartTicker() {
	step := s.sol.StepSize()
	start := s.clk.Now()
	t := s.clk.NewTicker(step)
	s.tickWG.Add(1)
	go func() {
		defer s.tickWG.Done()
		defer t.Stop()
		for {
			select {
			case <-t.C():
				expected := int64(s.clk.Now().Sub(start) / step)
				taken := 0
				for int64(s.stats.SolverSteps.Load()) < expected {
					if !s.Tick() {
						return
					}
					taken++
				}
				if taken > 1 {
					s.stats.MissedTicks.Add(uint64(taken - 1))
					if s.events != nil {
						s.events.Emit(telemetry.EvMissedTicks, "", "", float64(taken-1), "")
					}
				}
			case <-s.stopTick:
				return
			}
		}
	}()
}

// Tick takes the daemon through one solver tick, in the one order the
// determinism contract allows: boundary barrier, step, surrogate
// record, boundary publish, step span, SolverSteps, temperature sample,
// alert evaluation. StartTicker loops around it; a lockstep harness
// (online.Run) calls it directly and is done with the tick when it
// returns. One caller at a time, never beside a running StartTicker.
// It returns false only when the daemon is closing.
func (s *Server) Tick() bool {
	n := s.stats.SolverSteps.Load() + 1
	// Lockstep barrier: stepping tick n needs every peer's tick n-1
	// boundary exhausts (the model's one-tick transport delay). Tick 1
	// steps from the shared initial temperatures, so nothing to wait for.
	if s.peers != nil && n >= 2 && !s.awaitBoundary(n-1) {
		return false
	}
	var begin time.Duration
	if s.tracer != nil {
		begin = s.tracer.Now()
	}
	s.stepMu.Lock()
	s.stepFn()
	if s.surro != nil {
		s.surro.Record()
	}
	s.stepMu.Unlock()
	// SolverSteps releases a harness that polls it to advance the clock,
	// so the boundary publish and the clock-stamped span come first.
	if s.peers != nil {
		s.publishBoundary(n)
	}
	if s.tracer != nil {
		s.tracer.Emit(causal.Span{
			Trace: s.tracer.NewTrace("solver-step"),
			Kind:  causal.KindStep,
			Begin: begin,
			End:   s.tracer.Now(),
			Step:  n,
		})
	}
	s.stats.SolverSteps.Add(1)
	if s.temps != nil && n%tempSampleEvery == 0 {
		s.temps.Sample(time.Duration(n)*s.sol.StepSize(), s.fillFn)
	}
	s.alerts.EvalTick(n)
	return true
}

// Serve processes datagrams until Close. It returns nil after a clean
// Close.
func (s *Server) Serve() error {
	buf := make([]byte, 2048)
	for {
		// The AddrPort forms neither allocate an address per datagram.
		n, peer, err := s.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("solverd: %w", err)
		}
		s.handle(buf[:n], peer)
	}
}

// Close shuts the daemon down: the ticker stops and Serve returns.
func (s *Server) Close() error {
	s.tickOnce.Do(func() { close(s.stopTick) })
	s.closeBoundary()
	s.tickWG.Wait()
	return s.conn.Close()
}

// seqMark is the last utilization sequence number accepted from one
// machine's monitord.
type seqMark struct {
	seq  uint32
	seen bool
}

// reorderWindow is how far behind the last accepted sequence number a
// report may be and still be taken for a reordered or duplicated
// datagram, and dropped. monitord sends one report per interval, so
// this is seconds of reordering — far more than a LAN produces. A
// sequence number further back than that is a restarted monitord
// counting from 1 again, and is accepted. The blind spot that remains:
// a monitord restarted before it had sent reorderWindow reports (or
// whose new count lands within the window below its old one) is
// ignored until it passes its previous count, at most reorderWindow
// intervals.
const reorderWindow = 64

// acceptSeq runs the per-machine sequence dedupe: it reports whether
// the report is fresh, and if so remembers its sequence number.
func (s *Server) acceptSeq(ref int32, machine string, seq uint32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	var last seqMark
	if ref >= 0 {
		last = s.lastSeq[ref]
	} else {
		last.seq, last.seen = s.strangers[machine]
	}
	if last.seen && seq <= last.seq && last.seq-seq < reorderWindow {
		return false
	}
	if ref >= 0 {
		s.lastSeq[ref] = seqMark{seq: seq, seen: true}
	} else {
		s.strangers[machine] = seq
	}
	return true
}

// internName is the name table sensor reads are decoded against: the
// solver's own string for an owned machine, the first copy of a node
// name an earlier read found, a fresh copy for any other.
func (s *Server) internName(b []byte) string {
	if i, ok := s.names[string(b)]; ok {
		return s.machines[i]
	}
	if n, ok := s.nodeNames[string(b)]; ok {
		return n
	}
	return string(b)
}

// internMachine is the name table the wire decoder interns machine
// names against: it returns the solver's own string for the name and
// notes the machine's position in refs, so the name is looked up once
// per report and never copied. The decoder calls it once per report,
// in datagram order.
func (s *Server) internMachine(name []byte) string {
	if i, ok := s.names[string(name)]; ok {
		s.refs = append(s.refs, i)
		return s.machines[i]
	}
	s.refs = append(s.refs, -1)
	return string(name)
}

func (s *Server) handle(buf []byte, peer netip.AddrPort) {
	typ, err := wire.Type(buf)
	if err != nil {
		s.stats.Malformed.Add(1)
		return
	}
	switch typ {
	case wire.MsgSensorReadMany:
		s.reply(peer, s.handleSensorMany(buf))
	case wire.MsgFiddleOp:
		s.reply(peer, s.handleFiddle(buf))
	case wire.MsgUtilBatch:
		s.handleUtilBatch(buf)
	case wire.MsgBoundaryExchange:
		s.handleBoundary(buf)
	default:
		s.stats.Malformed.Add(1)
	}
}

func (s *Server) reply(peer netip.AddrPort, buf []byte) {
	if buf == nil {
		return
	}
	// Replies are best-effort; UDP clients time out and retry.
	_, _ = s.conn.WriteToUDPAddrPort(buf, peer)
}

// handleUtilBatch applies a utilization datagram: each report runs
// through applyUtil's per-machine sequence dedupe, so a machine's
// reports are ordered whichever daemon and datagram carry them.
func (s *Server) handleUtilBatch(buf []byte) {
	s.refs = s.refs[:0]
	b := &s.batch
	if err := wire.UnmarshalUtilBatchInto(b, buf, s.internMachine); err != nil {
		s.stats.Malformed.Add(1)
		return
	}
	s.stats.UtilBatches.Add(1)
	for i := range b.Reports {
		r := &b.Reports[i]
		s.applyUtil(s.refs[i], r.Machine, r.Seq, r.Entries, b.Trace)
	}
}

// applyUtil installs one machine's utilization report: dedupe,
// counting, the UTL record and the apply span. ref is the machine's
// position in the solver, -1 if the solver does not own it.
func (s *Server) applyUtil(ref int32, machine string, seq uint32, entries []wire.UtilEntry, tc wire.TraceContext) {
	if !s.acceptSeq(ref, machine, seq) {
		return
	}
	var begin time.Duration
	if s.tracer != nil {
		begin = s.tracer.Now()
	}
	// Unknown machines/sources are counted but otherwise ignored:
	// monitord may legitimately report streams the model does not use
	// (e.g. network utilization on a machine with no NIC node).
	unknown := len(entries)
	if ref >= 0 {
		unknown = s.sol.ApplyUtilization(int(ref), entries)
	}
	if unknown > 0 {
		s.stats.Malformed.Add(uint64(unknown))
	}
	if s.rec != nil {
		// Stamped with the current tick: the update influences step
		// tick+1, which is when replay re-applies it.
		s.rec.RecordUtil(s.stats.SolverSteps.Load(), machine, seq, entries)
	}
	if s.tracer != nil && tc.Trace != 0 {
		s.tracer.Emit(causal.Span{
			Trace:   tc.Trace,
			Parent:  tc.Span,
			Kind:    causal.KindUtilApply,
			Begin:   begin,
			End:     s.tracer.Now(),
			Machine: machine,
			Step:    s.stats.SolverSteps.Load(),
		})
	}
	// Bumped last, and the waiter woken after it: a lockstep harness
	// advances the clock (and steps the solver) as soon as it sees the
	// count, and the tick and span stamps above must not observe that.
	if s.stats.UtilUpdates.Add(1) >= s.utilTarget.Load() {
		select {
		case s.utilWake <- struct{}{}:
		default:
		}
	}
}

// AwaitUtilUpdates parks until Stats().UtilUpdates reaches n, woken by
// the report that gets it there. It fails when timeout passes in real
// time first (a lost datagram) or the daemon closes. A wait allocates
// nothing; one caller at a time.
func (s *Server) AwaitUtilUpdates(n uint64, timeout time.Duration) error {
	if s.stats.UtilUpdates.Load() >= n {
		return nil
	}
	s.utilTarget.Store(n)
	defer s.utilTarget.Store(math.MaxUint64)
	// A report that landed before the target was published woke nobody.
	if s.stats.UtilUpdates.Load() >= n {
		return nil
	}
	if s.utilGuard == nil {
		s.utilGuard = time.NewTimer(timeout)
	} else {
		s.utilGuard.Reset(timeout)
	}
	defer s.utilGuard.Stop()
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-s.utilWake:
			// The token may be a stale one, left by a report after an
			// earlier wait had already seen its count.
			if s.stats.UtilUpdates.Load() >= n {
				return nil
			}
		case <-s.utilGuard.C:
			// So may the fire, left by an earlier wait's guard.
			if left := time.Until(deadline); left > 0 {
				s.utilGuard.Reset(left)
				continue
			}
			return fmt.Errorf("solverd: %d of %d utilization updates applied after %v", s.stats.UtilUpdates.Load(), n, timeout)
		case <-s.stopTick:
			return fmt.Errorf("solverd: closed while awaiting utilization updates")
		}
	}
}

// handleSensorMany serves a sensor read from Serve-owned scratch, probe
// by probe in request order, and stops at the first unknown probe,
// whose index the reply carries; once a node name has been read, a
// read of it on an owned machine allocates nothing. SensorReads counts
// each probe read, so it means the same whether a client batches its
// reads or not. A traced read gets one serve span per probe read,
// parented to the request's context.
func (s *Server) handleSensorMany(buf []byte) []byte {
	req, rep := &s.manyReq, &s.manyRep
	if err := wire.UnmarshalSensorReadManyInto(req, buf, s.internName); err != nil {
		s.stats.Malformed.Add(1)
		return nil
	}
	traced := s.tracer != nil && req.Trace.Trace != 0
	*rep = wire.SensorReplyMany{Status: wire.StatusOK, Temps: rep.Temps[:0]}
	read := len(req.Probes)
	for i, p := range req.Probes {
		var begin time.Duration
		if traced {
			begin = s.tracer.Now()
		}
		temp, err := s.sol.Temperature(p.Machine, p.Node)
		if traced {
			s.tracer.Emit(causal.Span{
				Trace:   req.Trace.Trace,
				Parent:  req.Trace.Span,
				Kind:    causal.KindSensorServe,
				Begin:   begin,
				End:     s.tracer.Now(),
				Machine: p.Machine,
				Node:    p.Node,
				Value:   float64(temp),
				Step:    s.stats.SolverSteps.Load(),
			})
		}
		if err != nil {
			*rep = wire.SensorReplyMany{Status: wire.StatusUnknown, Temps: rep.Temps[:0], Failed: i, Message: err.Error()}
			read = i + 1
			break
		}
		rep.Temps = append(rep.Temps, temp)
		if _, ok := s.nodeNames[p.Node]; !ok {
			s.nodeNames[p.Node] = p.Node
		}
	}
	s.stats.SensorReads.Add(uint64(read))
	out, err := wire.AppendSensorReplyMany(s.replyBuf[:0], rep)
	if err != nil {
		return nil
	}
	s.replyBuf = out
	return out
}

// ApplyFiddle applies one fiddle operation through the same counting
// and event-logging path as the UDP handler; the HTTP control plane's
// POST /fiddle routes here so both entry points behave identically.
func (s *Server) ApplyFiddle(op *wire.FiddleOp) error {
	s.stats.FiddleOps.Add(1)
	if err := fiddle.Apply(s.sol, op); err != nil {
		return err
	}
	if s.rec != nil {
		s.rec.RecordFiddle(s.stats.SolverSteps.Load(), op)
	}
	if s.events != nil {
		// Source setpoints are global, so sharded runs broadcast them
		// to every region; only region 0 logs the event, keeping the
		// shared event log identical to a single-solver run.
		if op.Op == wire.OpSetSourceTemp {
			if idx, total := s.sol.Region(); total > 0 && idx != 0 {
				return nil
			}
		}
		machine := ""
		if len(op.Strings) > 0 {
			machine = op.Strings[0]
		}
		value := 0.0
		if len(op.Floats) > 0 {
			value = op.Floats[0]
		}
		s.events.Emit(telemetry.EvFiddle, machine, "", value, fiddleDetail(op))
	}
	return nil
}

// fiddleDetail renders an op for the event log, e.g.
// "pin-inlet(machine1)". Shared with mercury-replay so replayed
// events are byte-identical.
func fiddleDetail(op *wire.FiddleOp) string {
	return wire.FiddleEventDetail(op)
}

func (s *Server) handleFiddle(buf []byte) []byte {
	op, err := wire.UnmarshalFiddleOp(buf)
	if err != nil {
		s.stats.Malformed.Add(1)
		return nil
	}
	rep := &wire.FiddleReply{Status: wire.StatusOK}
	if err := s.ApplyFiddle(op); err != nil {
		var unk *solver.ErrUnknown
		if errors.As(err, &unk) {
			rep.Status = wire.StatusUnknown
		} else {
			rep.Status = wire.StatusBadOp
		}
		rep.Message = err.Error()
	}
	out, err := wire.AppendFiddleReply(s.replyBuf[:0], rep)
	if err != nil {
		return nil
	}
	s.replyBuf = out
	return out
}

// StateSnapshot is the daemon's /state document.
type StateSnapshot struct {
	Steps       uint64 `json:"steps"`
	MissedTicks uint64 `json:"missed_ticks"`
	UtilUpdates uint64 `json:"util_updates"`
	SensorReads uint64 `json:"sensor_reads"`
	FiddleOps   uint64 `json:"fiddle_ops"`
	Malformed   uint64 `json:"malformed"`

	// Region/Regions label this daemon's shard of a partitioned
	// cluster; Regions is 0 for an unpartitioned run.
	Region  int `json:"region"`
	Regions int `json:"regions,omitempty"`
	// Boundary exchange counters (sharded runs only).
	UtilBatches    uint64 `json:"util_batches,omitempty"`
	BoundaryOut    uint64 `json:"boundary_out,omitempty"`
	BoundaryIn     uint64 `json:"boundary_in,omitempty"`
	BoundaryMissed uint64 `json:"boundary_missed,omitempty"`

	// Machines maps machine name to its node temperatures (Celsius).
	Machines map[string]map[string]float64 `json:"machines"`
	// Temps summarizes the sampled temperature rings (telemetry only).
	Temps []telemetry.TempSummary `json:"temps,omitempty"`
	// Surrogate reports fit quality of the fast what-if model, when one
	// is attached.
	Surrogate *surrogate.FitStats `json:"surrogate,omitempty"`
	// Thresholds lists the freon Low/High/RedLine lines per watched
	// probe, and Alerts the engine snapshot (alerting only).
	Thresholds []alert.Probe   `json:"thresholds,omitempty"`
	Alerts     *alert.Snapshot `json:"alerts,omitempty"`
}

// State builds a point-in-time snapshot for the control plane. It
// takes the solver lock once per machine and is meant for on-demand
// serving, not hot loops.
func (s *Server) State() StateSnapshot {
	snap := StateSnapshot{
		Steps:       s.stats.SolverSteps.Load(),
		MissedTicks: s.stats.MissedTicks.Load(),
		UtilUpdates: s.stats.UtilUpdates.Load(),
		SensorReads: s.stats.SensorReads.Load(),
		FiddleOps:   s.stats.FiddleOps.Load(),
		Malformed:   s.stats.Malformed.Load(),
		Machines:    map[string]map[string]float64{},
	}
	snap.Region, snap.Regions = s.sol.Region()
	snap.UtilBatches = s.stats.UtilBatches.Load()
	snap.BoundaryOut = s.stats.BoundaryOut.Load()
	snap.BoundaryIn = s.stats.BoundaryIn.Load()
	snap.BoundaryMissed = s.stats.BoundaryMissed.Load()
	for m, temps := range s.sol.Snapshot() {
		mt := make(map[string]float64, len(temps))
		for n, t := range temps {
			mt[n] = float64(t)
		}
		snap.Machines[m] = mt
	}
	if s.temps != nil {
		snap.Temps = s.temps.Summaries()
	}
	if s.surro != nil {
		st := s.surro.Stats()
		snap.Surrogate = &st
	}
	if s.alerts != nil {
		snap.Thresholds = s.alerts.Probes()
		st := s.alerts.State()
		snap.Alerts = &st
	}
	return snap
}
