package monitord

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/procfs"
	"github.com/darklab/mercury/internal/telemetry"
	"github.com/darklab/mercury/internal/units"
	"github.com/darklab/mercury/internal/wire"
)

// captureServer collects utilization updates it receives.
func captureServer(t *testing.T) (string, chan *wire.UtilUpdate) {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	ch := make(chan *wire.UtilUpdate, 64)
	go func() {
		buf := make([]byte, 2048)
		for {
			n, _, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			if u, err := wire.UnmarshalUtilUpdate(buf[:n]); err == nil {
				ch <- u
			}
		}
	}()
	return conn.LocalAddr().String(), ch
}

func TestConfigValidation(t *testing.T) {
	synth := procfs.NewSynthetic(model.UtilCPU)
	if _, err := New(Config{Sampler: synth, SolverAddr: "127.0.0.1:1"}); err == nil {
		t.Error("missing machine: want error")
	}
	if _, err := New(Config{Machine: "m", SolverAddr: "127.0.0.1:1"}); err == nil {
		t.Error("missing sampler: want error")
	}
	if _, err := New(Config{Machine: "m", Sampler: synth, SolverAddr: "bad::::addr"}); err == nil {
		t.Error("bad address: want error")
	}
}

func TestSampleOnceSendsSequencedUpdates(t *testing.T) {
	addr, ch := captureServer(t)
	synth := procfs.NewSynthetic(model.UtilCPU, model.UtilDisk)
	synth.Set(model.UtilCPU, 0.6)
	d, err := New(Config{Machine: "machine1", Sampler: synth, SolverAddr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 3; i++ {
		if err := d.SampleOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if d.Sent() != 3 {
		t.Errorf("Sent = %d", d.Sent())
	}
	for want := uint32(1); want <= 3; want++ {
		select {
		case u := <-ch:
			if u.Seq != want {
				t.Errorf("seq = %d, want %d", u.Seq, want)
			}
			if u.Machine != "machine1" {
				t.Errorf("machine = %q", u.Machine)
			}
			var cpuSeen bool
			for _, e := range u.Entries {
				if e.Source == model.UtilCPU && e.Util == 0.6 {
					cpuSeen = true
				}
			}
			if !cpuSeen {
				t.Errorf("update %d missing cpu=0.6: %+v", want, u.Entries)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("update %d never arrived", want)
		}
	}
}

type badSampler struct{}

func (badSampler) Sample() ([]model.UtilSample, error) {
	return nil, errors.New("boom")
}

func TestSampleOnceSamplerError(t *testing.T) {
	addr, _ := captureServer(t)
	d, err := New(Config{Machine: "m", Sampler: badSampler{}, SolverAddr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.SampleOnce(); err == nil {
		t.Error("sampler failure: want error")
	}
	if d.Sent() != 0 {
		t.Errorf("Sent = %d after failure", d.Sent())
	}
}

func TestRunLoop(t *testing.T) {
	addr, ch := captureServer(t)
	synth := procfs.NewSynthetic(model.UtilCPU)
	d, err := New(Config{Machine: "m", Sampler: synth, SolverAddr: addr, Interval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	err = d.Run(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Run = %v", err)
	}
	if len(ch) < 2 {
		t.Errorf("received %d updates, want several", len(ch))
	}
}

// TestRunVirtualClock drives the sampling loop with a virtual clock:
// each one-second advance must produce exactly one update.
func TestRunVirtualClock(t *testing.T) {
	addr, ch := captureServer(t)
	synth := procfs.NewSynthetic(model.UtilCPU)
	synth.Set(model.UtilCPU, 0.5)
	clk := clock.NewVirtual()
	d, err := New(Config{Machine: "machine1", Sampler: synth, SolverAddr: addr, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()
	// The sampling ticker is the clock's only waiter: once it is
	// registered the first Advance cannot outrun Run's start-up.
	for deadline := time.Now().Add(5 * time.Second); clk.Waiters() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("Run never registered its ticker")
		}
		time.Sleep(time.Millisecond)
	}

	for i := uint64(1); i <= 3; i++ {
		clk.Advance(time.Second)
		deadline := time.Now().Add(5 * time.Second)
		for d.Sent() != i {
			if time.Now().After(deadline) {
				t.Fatalf("after advance %d: sent = %d", i, d.Sent())
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i := uint32(1); i <= 3; i++ {
		select {
		case u := <-ch:
			if u.Seq != i {
				t.Errorf("update %d has seq %d", i, u.Seq)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("update never arrived")
		}
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("Run returned %v, want context.Canceled", err)
	}
}

// rawServer hands over every datagram it receives, as sent.
func rawServer(t *testing.T) (string, chan []byte) {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	ch := make(chan []byte, 64)
	go func() {
		buf := make([]byte, 2048)
		for {
			n, _, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			ch <- append([]byte(nil), buf[:n]...)
		}
	}()
	return conn.LocalAddr().String(), ch
}

// TestBatchDatagramsMatchMarshal: a batch daemon reusing its report
// and datagram scratch must put on the wire exactly what a fresh
// MarshalUtilBatch of the same reports yields, sample after sample,
// including the short last chunk.
func TestBatchDatagramsMatchMarshal(t *testing.T) {
	addr, ch := rawServer(t)
	const machines = wire.MaxBatchMachines + 4
	synths := make([]*procfs.Synthetic, machines)
	batch := make([]BatchMachine, machines)
	for i := range batch {
		synths[i] = procfs.NewSynthetic(model.UtilDisk, model.UtilCPU)
		batch[i] = BatchMachine{Machine: fmt.Sprintf("machine%d", i+1), Sampler: synths[i]}
	}
	d, err := New(Config{Machine: "rack1", Batch: batch, SolverAddr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for seq := uint32(1); seq <= 3; seq++ {
		var reports []wire.UtilReport
		for i, s := range synths {
			cpu, disk := units.Fraction(float64(seq)/4), units.Fraction(float64(i)/machines)
			s.Set(model.UtilCPU, cpu)
			s.Set(model.UtilDisk, disk)
			reports = append(reports, wire.UtilReport{Machine: batch[i].Machine, Seq: seq, Entries: []wire.UtilEntry{
				{Source: model.UtilCPU, Util: cpu}, {Source: model.UtilDisk, Util: disk},
			}})
		}
		if err := d.SampleOnce(); err != nil {
			t.Fatal(err)
		}
		for off := 0; off < machines; off += wire.MaxBatchMachines {
			want, err := wire.MarshalUtilBatch(&wire.UtilBatch{Reports: reports[off:min(off+wire.MaxBatchMachines, machines)]})
			if err != nil {
				t.Fatal(err)
			}
			select {
			case got := <-ch:
				if !bytes.Equal(got, want) {
					t.Fatalf("seq %d, reports from %d:\n got %x\nwant %x", seq, off, got, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("seq %d: datagram for reports from %d never arrived", seq, off)
			}
		}
	}
	if d.Sent() != 3 {
		t.Errorf("Sent = %d, want 3", d.Sent())
	}
}

// TestSampleOnceBatchDoesNotAllocate: 96 machines through a live
// loopback socket, the rack-sharded shape — sampling, the six encodes
// and the six sends are free once the scratch is warm.
func TestSampleOnceBatchDoesNotAllocate(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		buf := make([]byte, 2048)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	batch := make([]BatchMachine, 96)
	synths := make([]*procfs.Synthetic, len(batch))
	for i := range batch {
		synths[i] = procfs.NewSynthetic(model.UtilCPU, model.UtilDisk)
		batch[i] = BatchMachine{Machine: fmt.Sprintf("machine%d", i+1), Sampler: synths[i]}
	}
	d, err := New(Config{Machine: "shard0", Batch: batch, SolverAddr: conn.LocalAddr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.SampleOnce(); err != nil {
		t.Fatal(err)
	}
	k := 0
	if n := testing.AllocsPerRun(50, func() {
		k++
		synths[k%len(synths)].Set(model.UtilCPU, units.Fraction(k%7)/7)
		if err := d.SampleOnce(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("batch SampleOnce: %v allocs/op, want 0", n)
	}
}

// TestStateSnapshotFromSlice: single mode still serves its latest
// sample on /state and as gauges now that samples arrive as slices.
func TestStateSnapshotFromSlice(t *testing.T) {
	addr, _ := captureServer(t)
	synth := procfs.NewSynthetic(model.UtilCPU, model.UtilDisk)
	reg := telemetry.NewRegistry()
	d, err := New(Config{Machine: "machine1", Sampler: synth, SolverAddr: addr, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, cpu := range []units.Fraction{0.25, 0.75} {
		synth.Set(model.UtilCPU, cpu)
		if err := d.SampleOnce(); err != nil {
			t.Fatal(err)
		}
		st := d.StateSnapshot()
		if len(st.Utils) != 2 || st.Utils["cpu"] != float64(cpu) || st.Utils["disk"] != 0 {
			t.Errorf("after cpu=%v: /state utilizations = %v", cpu, st.Utils)
		}
	}
	var out bytes.Buffer
	reg.WritePrometheus(&out)
	if want := `mercury_monitor_utilization{machine="machine1",source="cpu"} 0.75`; !bytes.Contains(out.Bytes(), []byte(want)) {
		t.Errorf("metrics lack %q:\n%s", want, out.String())
	}
}
