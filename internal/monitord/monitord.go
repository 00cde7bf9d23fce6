// Package monitord implements Mercury's monitoring daemon (Section
// 2.3): it "periodically samples the utilization of the components of
// the machine on which it is running and reports that information to
// the solver" in 128-byte UDP datagrams, once per second by default.
package monitord

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/procfs"
	"github.com/darklab/mercury/internal/telemetry"
	"github.com/darklab/mercury/internal/udprpc"
	"github.com/darklab/mercury/internal/wire"
)

// Daemon samples one machine's utilizations and streams them to the
// solver daemon.
type Daemon struct {
	machine  string
	sampler  procfs.Sampler
	batch    []BatchMachine
	client   *udprpc.Client
	interval time.Duration
	clk      clock.Clock
	tracer   *causal.Tracer
	seq      uint32
	sent     atomic.Uint64
	errs     atomic.Uint64

	reg    *telemetry.Registry
	gauges map[model.UtilSource]*telemetry.Gauge

	// Scratch of one SampleOnce, which has one caller at a time: the
	// batch's reports, their entries borrowed from the samplers until
	// the next sample, and the datagram they are encoded into.
	reports []wire.UtilReport
	dgram   []byte

	mu       sync.Mutex
	lastUtil []model.UtilSample // single mode's latest sample, for /state
}

// BatchMachine is one machine of a batched daemon: its model name and
// the sampler providing its utilizations.
type BatchMachine struct {
	Machine string
	Sampler procfs.Sampler
}

// Config configures a Daemon.
type Config struct {
	// Machine is the name this daemon reports as; it must match a
	// machine in the solver's model. In batch mode it is only a label
	// for metrics and tracing (e.g. "rack1").
	Machine string
	// Sampler provides the utilizations (procfs.New for a live Linux
	// host, procfs.NewSynthetic for emulation). Unused in batch mode.
	Sampler procfs.Sampler
	// Batch, when non-empty, makes the daemon report for many machines
	// at once — one of it per rack or shard instead of one daemon per
	// machine. Each interval it samples every entry and sends the lot
	// as MsgUtilBatch datagrams (MaxBatchMachines per datagram), one
	// shared sequence number across the batch: ~16x fewer datagrams
	// and system calls than the per-machine fan-out.
	Batch []BatchMachine
	// SolverAddr is the solver daemon's UDP address.
	SolverAddr string
	// Interval between updates; default 1s, the paper's "tunable
	// parameter set to 1 second by default".
	Interval time.Duration
	// Clock drives the sampling ticker; nil means the real clock. A
	// clock.Virtual runs the daemon at warp speed or in lockstep.
	Clock clock.Clock
	// Registry, when non-nil, receives the daemon's metrics: updates
	// sent, sample errors, and one utilization gauge per stream.
	Registry *telemetry.Registry
	// Tracer, when non-nil, records a causal span for every sample and
	// embeds its trace context in the update datagram's padding bytes,
	// so the solver can attribute its apply back to this sample.
	Tracer *causal.Tracer
}

// New connects a Daemon to the solver daemon.
func New(cfg Config) (*Daemon, error) {
	if cfg.Machine == "" {
		return nil, fmt.Errorf("monitord: machine name required")
	}
	if cfg.Sampler == nil && len(cfg.Batch) == 0 {
		return nil, fmt.Errorf("monitord: sampler required")
	}
	for _, bm := range cfg.Batch {
		if bm.Machine == "" || bm.Sampler == nil {
			return nil, fmt.Errorf("monitord: batch entries need a machine name and a sampler")
		}
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	client, err := udprpc.DialClock(cfg.SolverAddr, 0, 0, cfg.Clock)
	if err != nil {
		return nil, fmt.Errorf("monitord: %w", err)
	}
	d := &Daemon{
		machine:  cfg.Machine,
		sampler:  cfg.Sampler,
		batch:    cfg.Batch,
		client:   client,
		interval: cfg.Interval,
		clk:      cfg.Clock,
		tracer:   cfg.Tracer,
		reg:      cfg.Registry,
		gauges:   map[model.UtilSource]*telemetry.Gauge{},
		reports:  make([]wire.UtilReport, len(cfg.Batch)),
	}
	if d.reg != nil {
		d.reg.CounterFunc("mercury_monitor_updates_sent_total",
			"utilization updates handed to the network",
			func() float64 { return float64(d.sent.Load()) })
		d.reg.CounterFunc("mercury_monitor_sample_errors_total",
			"failed sample or send attempts",
			func() float64 { return float64(d.errs.Load()) })
	}
	return d, nil
}

// SampleOnce takes one sample and sends one update datagram (or, in
// batch mode, samples every batch machine and sends the batched
// datagrams). With a tracer attached, each sample roots a fresh trace:
// the sample span's context rides in the datagram so the solver's
// apply (and anything it causes) links back here. It reuses the
// daemon's report and datagram scratch — in steady state a sample
// allocates nothing — so it must not be called concurrently.
func (d *Daemon) SampleOnce() error {
	var begin time.Duration
	if d.tracer != nil {
		begin = d.tracer.Now()
	}
	var err error
	if len(d.batch) > 0 {
		err = d.sampleBatch(begin)
	} else {
		err = d.sampleSingle(begin)
	}
	if err != nil {
		d.errs.Add(1)
		return err
	}
	d.sent.Add(1)
	return nil
}

func (d *Daemon) nextSeq() uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seq++
	return d.seq
}

// traceSample closes the sample span opened at begin and returns the
// context that rides in the datagram (zero without a tracer). Span IDs
// are content-derived, so the ID exists before the span is emitted —
// and the span is stamped and emitted before the send: once the solver
// has applied the datagram a lockstep harness may advance the clock or
// collect the spans, and neither may catch this one half done.
func (d *Daemon) traceSample(begin time.Duration) wire.TraceContext {
	if d.tracer == nil {
		return wire.TraceContext{}
	}
	span := causal.Span{
		Trace:   d.tracer.NewTrace(d.machine),
		Kind:    causal.KindSample,
		Begin:   begin,
		Machine: d.machine,
	}
	span.ID = causal.SpanID(&span)
	span.End = d.tracer.Now()
	d.tracer.Emit(span)
	return wire.TraceContext{Trace: span.Trace, Span: span.ID}
}

// sampleBatch samples every batch machine and ships the reports as
// MsgUtilBatch datagrams, MaxBatchMachines per datagram, all sharing
// one sequence number. One sample span covers the whole batch.
func (d *Daemon) sampleBatch(begin time.Duration) error {
	seq := d.nextSeq()
	for i, bm := range d.batch {
		utils, err := bm.Sampler.Sample()
		if err != nil {
			return fmt.Errorf("monitord: sample %s: %w", bm.Machine, err)
		}
		d.reports[i] = wire.UtilReport{Machine: bm.Machine, Seq: seq, Entries: utils}
	}
	tc := d.traceSample(begin)
	for off := 0; off < len(d.reports); off += wire.MaxBatchMachines {
		chunk := wire.UtilBatch{Reports: d.reports[off:min(off+wire.MaxBatchMachines, len(d.reports))], Trace: tc}
		var err error
		if d.dgram, err = wire.AppendUtilBatch(d.dgram[:0], &chunk); err != nil {
			return fmt.Errorf("monitord: %w", err)
		}
		if err := d.client.Send(d.dgram); err != nil {
			return fmt.Errorf("monitord: %w", err)
		}
	}
	return nil
}

func (d *Daemon) sampleSingle(begin time.Duration) error {
	utils, err := d.sampler.Sample()
	if err != nil {
		return fmt.Errorf("monitord: sample: %w", err)
	}
	u := wire.UtilUpdate{Machine: d.machine, Seq: d.nextSeq(), Entries: utils}
	u.Trace = d.traceSample(begin)
	d.record(utils)
	if d.dgram, err = wire.AppendUtilUpdate(d.dgram[:0], &u); err != nil {
		return fmt.Errorf("monitord: %w", err)
	}
	if err := d.client.Send(d.dgram); err != nil {
		return fmt.Errorf("monitord: %w", err)
	}
	return nil
}

// record keeps the latest sample for /state and mirrors it into
// per-stream gauges (registered lazily on first sight of a stream).
func (d *Daemon) record(utils []model.UtilSample) {
	d.mu.Lock()
	d.lastUtil = append(d.lastUtil[:0], utils...)
	d.mu.Unlock()
	if d.reg == nil {
		return
	}
	for _, e := range utils {
		g, ok := d.gauges[e.Source]
		if !ok {
			g = d.reg.Gauge(
				fmt.Sprintf("mercury_monitor_utilization{machine=%q,source=%q}", d.machine, string(e.Source)),
				"most recent sampled utilization (0..1)")
			d.gauges[e.Source] = g
		}
		g.Set(float64(e.Util))
	}
}

// State is the daemon's /state document.
type State struct {
	Machine string             `json:"machine"`
	Seq     uint32             `json:"seq"`
	Sent    uint64             `json:"sent"`
	Errors  uint64             `json:"errors"`
	Utils   map[string]float64 `json:"utilizations"`
}

// StateSnapshot captures the daemon's state for the control plane.
func (d *Daemon) StateSnapshot() State {
	d.mu.Lock()
	utils := make(map[string]float64, len(d.lastUtil))
	for _, e := range d.lastUtil {
		utils[string(e.Source)] = float64(e.Util)
	}
	seq := d.seq
	d.mu.Unlock()
	return State{
		Machine: d.machine,
		Seq:     seq,
		Sent:    d.sent.Load(),
		Errors:  d.errs.Load(),
		Utils:   utils,
	}
}

// Sent returns the number of updates successfully handed to the
// network. Safe to read while Run is looping.
func (d *Daemon) Sent() uint64 { return d.sent.Load() }

// Errors returns the number of failed report attempts (health rules
// watch this through the alert engine's missed-ticks counter slot).
func (d *Daemon) Errors() uint64 { return d.errs.Load() }

// Run samples on the configured interval until ctx is done. Transient
// sample or send failures are tolerated (the solver just keeps the
// previous utilization, as with any lost UDP datagram); Run returns
// only when ctx is cancelled (a lockstep harness calls SampleOnce).
func (d *Daemon) Run(ctx context.Context) error {
	t := d.clk.NewTicker(d.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C():
			_ = d.SampleOnce()
		}
	}
}

// Close releases the daemon's socket.
func (d *Daemon) Close() error { return d.client.Close() }
