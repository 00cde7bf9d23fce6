package online_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/online"
	"github.com/darklab/mercury/internal/sensor"
	"github.com/darklab/mercury/internal/telemetry"
)

// digester folds a run's output into one FNV-64a sum, every number by
// its bits and every string length-prefixed, so two runs agree exactly
// when their outputs are bit-identical.
type digester struct{ buf []byte }

func (d *digester) u64(v uint64)  { d.buf = binary.BigEndian.AppendUint64(d.buf, v) }
func (d *digester) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d *digester) str(s string) {
	d.u64(uint64(len(s)))
	d.buf = append(d.buf, s...)
}

func (d *digester) sum() uint64 {
	h := fnv.New64a()
	h.Write(d.buf)
	return h.Sum64()
}

// spanDigest hashes the canonical span set, every field but the ring
// sequence (arrival order, which varies run to run).
func spanDigest(spans []causal.Span) uint64 {
	var d digester
	for _, s := range spans {
		d.u64(s.Trace)
		d.u64(s.ID)
		d.u64(s.Parent)
		d.str(string(s.Kind))
		d.u64(uint64(s.Begin))
		d.u64(uint64(s.End))
		d.str(s.Machine)
		d.str(s.Node)
		d.f64(s.Value)
		d.u64(s.Step)
	}
	return d.sum()
}

func eventDigest(events []telemetry.Event) uint64 {
	var d digester
	for _, e := range events {
		d.u64(e.Seq)
		d.u64(uint64(e.At))
		d.str(string(e.Type))
		d.str(e.Machine)
		d.str(e.Node)
		d.f64(e.Value)
		d.str(e.Detail)
	}
	return d.sum()
}

func sampleDigest(samples []online.Sample) uint64 {
	var d digester
	for _, s := range samples {
		d.u64(uint64(s.Sec))
		for _, t := range s.Temps {
			d.f64(float64(t))
		}
	}
	return d.sum()
}

// TestOnlineFig11TracedDigests freezes what a traced Figure 11 run
// emits — every span (not only the emergency traces the trace golden
// prints), every event and every sampled temperature — in both
// monitord modes. However the harness reads its sensors, these must
// not move.
func TestOnlineFig11TracedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("two full 2000s runs; skipped in -short")
	}
	for _, tc := range []struct {
		batch                  bool
		spans, events, samples uint64
	}{
		{false, 0x9e72fa0df7f29c7c, 0x9a734a8d8c70ef4b, 0x275c37b31461527},
		{true, 0x4cc29a93bc184488, 0x9a734a8d8c70ef4b, 0x275c37b31461527},
	} {
		res, err := online.Run(online.Config{
			Duration: 2000 * time.Second,
			Script:   online.Fig11Script,
			Trace:    true,
			Batch:    tc.batch,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := [3]uint64{spanDigest(res.Spans), eventDigest(res.Events), sampleDigest(res.Samples)}
		want := [3]uint64{tc.spans, tc.events, tc.samples}
		if got != want {
			t.Errorf("Batch=%v: digests (spans, events, samples) = %#x, want %#x (%d spans, %d events, %d samples)",
				tc.batch, got, want, len(res.Spans), len(res.Events), len(res.Samples))
		}
	}
}

// TestRunOpensOneSensorSocketPerShard: every sensor read of a run — the
// harness's CPU samples and Freon's component checks — goes over one
// socket per solver daemon, however many machines and nodes it reads.
func TestRunOpensOneSensorSocketPerShard(t *testing.T) {
	orig := *online.DialSensors
	defer func() { *online.DialSensors = orig }()
	for _, shards := range []int{1, 2} {
		dials := 0
		*online.DialSensors = func(addr string, opts sensor.Options) (*sensor.Reader, error) {
			dials++
			return orig(addr, opts)
		}
		res, err := online.Run(online.Config{
			Machines: 64,
			Batch:    true,
			Shards:   shards,
			Duration: 130 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if dials != shards {
			t.Errorf("Shards=%d: %d sensor sockets opened, want %d", shards, dials, shards)
		}
		// 13 samples of 64 CPUs and 2 Freon periods of 64 machines x 2
		// components: the reads all happened, over those sockets.
		if want := uint64(13*64 + 2*64*2); res.SensorReads != want {
			t.Errorf("Shards=%d: SensorReads = %d, want %d", shards, res.SensorReads, want)
		}
	}
}
