package recordlog

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/telemetry"
	"github.com/darklab/mercury/internal/wire"
)

// defaultRingSize is the default record ring capacity (must be a
// power of two). At ~500 bytes max per record that is ~1 MiB of
// buffer between the hot paths and the disk.
const defaultRingSize = 2048

// cellBuf is each ring cell's payload buffer, and so the largest
// payload a record type may declare (TestLayoutStrings checks).
const cellBuf = 512

// cell is one slot of the bounded MPSC ring. seq carries the Vyukov
// protocol state: pos means "free for the producer claiming pos",
// pos+1 means "published, awaiting the consumer", pos+ringSize means
// "consumed, free for the producer claiming pos+ringSize".
type cell struct {
	seq atomic.Uint64
	typ byte
	n   uint16
	buf [cellBuf]byte
}

// WriterOption configures Create.
type WriterOption func(*writerConfig)

type writerConfig struct {
	ringSize  int
	autostart bool
	maxBytes  int64
}

// WithMaxBytes enables size-based rotation: once a segment file
// exceeds n bytes the writer closes it and continues in the next
// segment (base.mrl → base.1.mrl → base.2.mrl …). Each segment
// re-emits the file header (same epoch), the format-descriptor table,
// and the cached META and probe-identity records, so every segment is
// self-describing. 0 (the default) disables rotation.
func WithMaxBytes(n int64) WriterOption {
	return func(c *writerConfig) { c.maxBytes = n }
}

// Writer appends records to one flight-recorder file. The Record*
// methods are safe for concurrent use, never block, and perform no
// allocations: each encodes into a preallocated ring cell claimed
// with a single CAS; a background goroutine drains cells to a
// buffered file. When the ring is full (disk too slow) the record is
// dropped and counted — the hot path is never back-pressured.
type Writer struct {
	f     *os.File
	bw    *bufio.Writer
	clk   clock.Clock
	epoch time.Time
	path  string
	node  string
	flags byte

	// Rotation state. segBytes/seg are touched only by the consumer
	// goroutine (and by newWriter before it starts); the cached
	// META/probe payloads are shared with producers under metaMu.
	maxBytes int64
	segBytes int64
	seg      int
	segments atomic.Uint64

	// head and tail frame the payload writeFrame writes; consumer
	// goroutine only. As locals they would escape through bw.Write and
	// cost two allocations a record.
	head [frameHead]byte
	tail [4]byte

	metaMu     sync.Mutex
	meta       MetaRecord
	metaProbes []telemetry.TempProbe

	cells []cell
	mask  uint64
	enq   atomic.Uint64 // next producer position
	deq   atomic.Uint64 // next consumer position (stored by the consumer goroutine only)

	drops     atomic.Uint64
	written   atomic.Uint64
	truncated atomic.Uint64

	notify chan struct{}
	quit   chan struct{}
	done   chan struct{}
	once   sync.Once

	mu   sync.Mutex
	werr error // first write error, reported by Close
}

// Create opens path for writing, emits the file header and the
// format-descriptor table synchronously, and starts the drain
// goroutine. node names the recording daemon (stored in the header,
// used by dash backfill as the target name). clk stamps util/fiddle
// records; pass the daemon's clock (nil falls back to the real
// clock). The epoch recorded in the header is clk.Now() at Create
// time — create the writer before advancing a virtual clock so the
// epoch is virtual t=0.
func Create(path, node string, clk clock.Clock, opts ...WriterOption) (*Writer, error) {
	return newWriter(path, node, clk, writerConfig{ringSize: defaultRingSize, autostart: true}, opts...)
}

func newWriter(path, node string, clk clock.Clock, cfg writerConfig, opts ...WriterOption) (*Writer, error) {
	for _, o := range opts {
		o(&cfg)
	}
	size := 8
	for size < cfg.ringSize {
		size <<= 1
	}
	if clk == nil {
		clk = clock.Real{}
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &Writer{
		clk:      clk,
		epoch:    clk.Now(),
		path:     path,
		node:     node,
		maxBytes: cfg.maxBytes,
		cells:    make([]cell, size),
		mask:     uint64(size - 1),
		notify:   make(chan struct{}, 1),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for i := range w.cells {
		w.cells[i].seq.Store(uint64(i))
	}
	if _, ok := clk.(*clock.Virtual); ok {
		w.flags |= FlagVirtualClock
	}
	// The preamble is written synchronously so every reader —
	// including one racing a live writer — sees the full format table
	// before any data record.
	w.startSegment(f)
	w.flush()
	if w.werr != nil {
		f.Close()
		return nil, w.werr
	}
	if cfg.autostart {
		go w.drain()
	}
	return w, nil
}

// Path returns the file path the writer was created with.
func (w *Writer) Path() string { return w.path }

// Drops returns the number of records dropped because the ring was
// full.
func (w *Writer) Drops() uint64 { return w.drops.Load() }

// Written returns the number of frames written to the file so far
// (including the descriptor table).
func (w *Writer) Written() uint64 { return w.written.Load() }

// SegmentPath returns the path of rotation segment n (n ≥ 1) of the
// log at path: "room.mrl" → "room.1.mrl". Segment 0 is path itself.
func SegmentPath(path string, n int) string {
	if n == 0 {
		return path
	}
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s.%d%s", path[:len(path)-len(ext)], n, ext)
}

// IsSegment reports whether path names a rotation segment
// (base.N.mrl) of a base log file that exists alongside it.
// Directory scanners (dash backfill) use this to avoid double-loading
// records that ReadLog already stitches in via the base file.
func IsSegment(path string) bool {
	ext := filepath.Ext(path)
	stem := path[:len(path)-len(ext)]
	numExt := filepath.Ext(stem)
	if len(numExt) < 2 {
		return false
	}
	for _, r := range numExt[1:] {
		if r < '0' || r > '9' {
			return false
		}
	}
	_, err := os.Stat(stem[:len(stem)-len(numExt)] + ext)
	return err == nil
}

// Close drains outstanding records, flushes and syncs the file, and
// returns the first write error encountered. Stop all producers
// before calling Close: records published after Close begins may be
// lost (they are never corrupted — the file always ends on a frame
// boundary or a cleanly-truncated tail). Close is idempotent.
func (w *Writer) Close() error {
	w.once.Do(func() { close(w.quit) })
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.werr
}

// CatchUp is for a producer that owes nothing to the wall clock — a
// lockstep harness, between emulated seconds. It reads the backlog and
// returns at once unless more than half the ring is waiting on the
// drain goroutine; only then does it wait until the drain is back under
// half, so a run that outpaces its recorder slows down instead of
// dropping. Live daemons never call it: they drop, count, never block.
func (w *Writer) CatchUp() {
	half := uint64(len(w.cells)) / 2
	// deq is read before enq, so the backlog cannot come out negative.
	for deq := w.deq.Load(); w.enq.Load()-deq > half; deq = w.deq.Load() {
		select {
		case <-w.done:
			return // closed: nothing is draining any more
		default:
			time.Sleep(10 * time.Microsecond)
		}
	}
}

// slot is a claimed ring cell and the cursor encoding into it.
type slot struct {
	cell *cell
	pos  uint64
	cursor
}

// claim grabs the next ring cell for a record of type typ, or counts
// a drop and reports the ring full. Every Record* method encodes into
// the slot with its type's field function — a direct call, so the
// record stays on the caller's stack — and hands it to publish.
func (w *Writer) claim(typ byte) (slot, bool) {
	for {
		pos := w.enq.Load()
		c := &w.cells[pos&w.mask]
		seq := c.seq.Load()
		switch d := int64(seq) - int64(pos); {
		case d == 0:
			if w.enq.CompareAndSwap(pos, pos+1) {
				c.typ = typ
				return slot{cell: c, pos: pos, cursor: cursor{b: c.buf[:]}}, true
			}
		case d < 0:
			w.drops.Add(1) // consumer hasn't freed this cell: ring full
			return slot{}, false
		}
		// d > 0: another producer claimed pos first; reload and retry.
	}
}

// publish hands an encoded slot to the consumer and nudges it awake.
func (w *Writer) publish(s *slot) {
	s.cell.n = uint16(s.off)
	if s.trunc > 0 {
		w.truncated.Add(uint64(s.trunc))
	}
	s.cell.seq.Store(s.pos + 1)
	select {
	case w.notify <- struct{}{}:
	default:
	}
}

// RecordEvent records one telemetry event. Suitable as an
// EventLog.SetSink target.
func (w *Writer) RecordEvent(e telemetry.Event) { w.event(RecEvent, &e) }

// RecordAlert records one alert state transition. Alert transitions
// are telemetry events (alert-pending/firing/resolved with the rule
// name as Detail), so the payload mirrors RecEvent under its own
// record type. Suitable as the alert engine transitions-log sink.
func (w *Writer) RecordAlert(e telemetry.Event) { w.event(RecAlert, &e) }

func (w *Writer) event(typ byte, e *telemetry.Event) {
	if s, ok := w.claim(typ); ok {
		eventFields(&s.cursor, e)
		w.publish(&s)
	}
}

// RecordSpan records one causal span. Suitable as a Tracer.SetSink
// target.
func (w *Writer) RecordSpan(sp causal.Span) {
	if s, ok := w.claim(RecSpan); ok {
		spanFields(&s.cursor, &sp)
		w.publish(&s)
	}
}

// maxProbes is the most temperature columns a capture can name: a
// probe index is a u16. Columns past it are not recorded, and each
// SetProbes or RecordTempRow call that cuts some counts as one
// truncation — replay then refuses the capture on its probe count
// rather than compare the wrong columns.
const maxProbes = math.MaxUint16 + 1

// SetProbes records the temp-probe identity table: probe i of every
// subsequent RecTempRow is probes[i].
func (w *Writer) SetProbes(probes []telemetry.TempProbe) {
	if len(probes) > maxProbes {
		probes = probes[:maxProbes]
		w.truncated.Add(1)
	}
	w.metaMu.Lock()
	w.metaProbes = append(w.metaProbes[:0], probes...)
	w.metaMu.Unlock()
	for i, p := range probes {
		if s, ok := w.claim(RecProbe); ok {
			probeFields(&s.cursor, &ProbeRecord{Index: i, Machine: p.Machine, Node: p.Node})
			w.publish(&s)
		}
	}
}

// RecordTempRow records one sampled temperature column (all probes at
// virtual time at), chunking long rows. vals is copied synchronously;
// the caller may reuse it. Suitable as a TempTable.SetSink target.
func (w *Writer) RecordTempRow(at time.Duration, vals []float64) {
	if len(vals) > maxProbes {
		vals = vals[:maxProbes]
		w.truncated.Add(1)
	}
	for first := 0; ; first += tempChunk {
		hi := min(first+tempChunk, len(vals))
		if s, ok := w.claim(RecTempRow); ok {
			tempFields(&s.cursor, &TempChunk{At: at, First: first, Temps: vals[first:hi]})
			w.publish(&s)
		}
		if hi == len(vals) {
			return
		}
	}
}

// RecordUtil records one applied utilization update: tick is the
// solver step count when it was applied (it influences step tick+1),
// seq the wire sequence number. The timestamp is the writer clock's
// elapsed time since the header epoch.
func (w *Writer) RecordUtil(tick uint64, machine string, seq uint32, entries []wire.UtilEntry) {
	if s, ok := w.claim(RecUtil); ok {
		utilFields(&s.cursor, &UtilRecord{Tick: tick, At: w.clk.Now().Sub(w.epoch), Seq: seq, Machine: machine, Entries: entries})
		w.publish(&s)
	}
}

// RecordFiddle records one applied fiddle op at solver tick.
func (w *Writer) RecordFiddle(tick uint64, op *wire.FiddleOp) {
	if s, ok := w.claim(RecFiddle); ok {
		fiddleFields(&s.cursor, &FiddleRecord{Tick: tick, At: w.clk.Now().Sub(w.epoch), Op: *op})
		w.publish(&s)
	}
}

// RecordBoundary records one imported boundary-temperature exchange
// (sharded runs), chunking long index lists.
func (w *Writer) RecordBoundary(tick uint64, region int, idx []int32, temps []float64) {
	for first := 0; ; first += boundaryChunk {
		hi := min(first+boundaryChunk, len(idx))
		if s, ok := w.claim(RecBoundary); ok {
			boundaryFields(&s.cursor, &BoundaryRecord{Tick: tick, Region: region, Index: idx[first:hi], Temps: temps[first:hi]})
			w.publish(&s)
		}
		if hi == len(idx) {
			return
		}
	}
}

// RecordMeta records run metadata (solver step size, machine count).
// Call once after the solver is built.
func (w *Writer) RecordMeta(step time.Duration, machines int) {
	m := MetaRecord{Step: step, Machines: machines}
	w.metaMu.Lock()
	w.meta = m
	w.metaMu.Unlock()
	if s, ok := w.claim(RecMeta); ok {
		metaFields(&s.cursor, &m)
		w.publish(&s)
	}
}

// drain is the consumer goroutine: it moves published cells to the
// buffered file in ring order, flushing whenever the ring runs dry.
func (w *Writer) drain() {
	defer close(w.done)
	for {
		if w.drainAvailable() == 0 {
			w.flush()
			select {
			case <-w.notify:
			case <-w.quit:
				w.drainAvailable()
				w.flush()
				w.setErr(w.f.Sync())
				w.setErr(w.f.Close())
				return
			}
		}
	}
}

func (w *Writer) drainAvailable() int {
	n := 0
	for {
		pos := w.deq.Load()
		c := &w.cells[pos&w.mask]
		if c.seq.Load() != pos+1 {
			return n
		}
		w.writeFrame(c.typ, c.buf[:c.n])
		c.seq.Store(pos + w.mask + 1)
		w.deq.Store(pos + 1)
		n++
		w.maybeRotate()
	}
}

// writeFrame emits one framed payload to the buffered writer.
func (w *Writer) writeFrame(typ byte, payload []byte) {
	w.head[0] = typ
	binary.BigEndian.PutUint16(w.head[1:], uint16(len(payload)))
	binary.BigEndian.PutUint32(w.tail[:], frameCRC(w.head[:], payload))
	_, err := w.bw.Write(w.head[:])
	if err == nil {
		_, err = w.bw.Write(payload)
	}
	if err == nil {
		_, err = w.bw.Write(w.tail[:])
	}
	w.setErr(err)
	w.written.Add(1)
	w.segBytes += int64(frameOverhead + len(payload))
}

// maybeRotate closes the current segment and opens the next once it
// exceeds the configured size. Consumer goroutine only. The new
// segment gets the same header (same epoch, node, flags) plus the
// descriptor table and the cached META/probe records, so readers can
// interpret it standalone.
func (w *Writer) maybeRotate() {
	if w.maxBytes <= 0 || w.segBytes < w.maxBytes {
		return
	}
	f, err := os.Create(SegmentPath(w.path, w.seg+1))
	if err != nil {
		w.setErr(err)
		w.maxBytes = 0 // rotation broken; keep appending to the current file
		return
	}
	w.flush()
	w.setErr(w.f.Sync())
	w.setErr(w.f.Close())
	w.seg++
	w.segments.Add(1)
	w.startSegment(f)
}

// startSegment switches to segment file f and writes its preamble:
// the file header, the descriptor table, and the cached META and
// probe-identity records (none yet in the first segment), so every
// segment reads standalone.
func (w *Writer) startSegment(f *os.File) {
	w.f = f
	w.bw = bufio.NewWriterSize(f, 1<<16)
	var buf [headerSize]byte
	magic := Magic
	headerFields(&cursor{b: buf[:]}, &magic, &Header{Version: Version, Flags: w.flags, Epoch: w.epoch, Node: w.node})
	_, err := w.bw.Write(buf[:])
	w.setErr(err)
	w.segBytes = headerSize
	for i := range formats {
		writeRecord(w, RecFormat, formatFields, &formats[i])
	}
	w.metaMu.Lock()
	meta, probes := w.meta, w.metaProbes
	w.metaMu.Unlock()
	if meta != (MetaRecord{}) {
		writeRecord(w, RecMeta, metaFields, &meta)
	}
	for i, p := range probes {
		writeRecord(w, RecProbe, probeFields, &ProbeRecord{Index: i, Machine: p.Machine, Node: p.Node})
	}
}

// writeRecord encodes v with its field function and writes it as one
// frame, bypassing the ring (consumer side and newWriter only).
func writeRecord[T any](w *Writer, typ byte, fields func(*cursor, *T), v *T) {
	var buf [cellBuf]byte
	c := cursor{b: buf[:]}
	fields(&c, v)
	w.writeFrame(typ, buf[:c.off])
}

func (w *Writer) flush() {
	w.setErr(w.bw.Flush())
}

func (w *Writer) setErr(err error) {
	if err == nil {
		return
	}
	w.mu.Lock()
	if w.werr == nil {
		w.werr = err
	}
	w.mu.Unlock()
}
