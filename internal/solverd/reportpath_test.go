package solverd_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/monitord"
	"github.com/darklab/mercury/internal/procfs"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/solverd"
	"github.com/darklab/mercury/internal/units"
	"github.com/darklab/mercury/internal/wire"
)

// loopback serves sol from a solverd and returns send, which has a
// batch monitord for batch sample and send one interval's reports over
// a real socket and waits, as online.Run does, until solverd has
// applied them all.
func loopback(tb testing.TB, sol *solver.Solver, batch []monitord.BatchMachine) (send func()) {
	tb.Helper()
	srv, err := solverd.Listen("127.0.0.1:0", sol)
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve()
	d, err := monitord.New(monitord.Config{Machine: "rack1", Batch: batch, SolverAddr: srv.Addr().String()})
	if err != nil {
		srv.Close()
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		d.Close()
		srv.Close()
	})
	applied := uint64(0)
	return func() {
		if err := d.SampleOnce(); err != nil {
			tb.Fatal(err)
		}
		applied += uint64(len(batch))
		if err := srv.AwaitUtilUpdates(applied, 10*time.Second); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestLoopbackReportDoesNotAllocate: a batch monitord's SampleOnce
// into a live solverd — sample, encode, send, receive, decode, apply —
// allocates nothing in either daemon.
func TestLoopbackReportDoesNotAllocate(t *testing.T) {
	const n = 16
	c, err := model.DefaultCluster("room", n)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solver.New(c, solver.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	synths := make([]*procfs.Synthetic, n)
	batch := make([]monitord.BatchMachine, n)
	for i, m := range sol.Machines() {
		synths[i] = procfs.NewSynthetic(model.UtilCPU, model.UtilDisk)
		batch[i] = monitord.BatchMachine{Machine: m, Sampler: synths[i]}
	}
	send := loopback(t, sol, batch)
	i := 0
	if a := testing.AllocsPerRun(100, func() {
		i++
		synths[i%n].Set(model.UtilCPU, units.Fraction(i%100)/100)
		send()
	}); a != 0 {
		t.Errorf("%v allocs per loopback interval, want 0", a)
	}
}

// BenchmarkUtilReportPath walks one interval's utilization reports for
// a rack of 16 or 96 machines through each stage of the report path —
// sampling, encoding into a reused datagram, decoding into reused
// storage, applying to the solver — and then through all of them at
// once: loopback is a batch monitord's SampleOnce over a real socket
// into a solverd, timed until the last report is applied. Every stage
// must stay at 0 allocs/op (docs/performance.md, "Utilization report
// path"); TestLoopbackReportDoesNotAllocate and each stage's own
// package hold them there.
func BenchmarkUtilReportPath(b *testing.B) {
	for _, n := range []int{16, 96} {
		c, err := model.DefaultCluster("room", n)
		if err != nil {
			b.Fatal(err)
		}
		sol, err := solver.New(c, solver.Config{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		names := sol.Machines()
		synths := make([]*procfs.Synthetic, n)
		batch := make([]monitord.BatchMachine, n)
		reports := make([]wire.UtilReport, n)
		for i := range synths {
			synths[i] = procfs.NewSynthetic(model.UtilCPU, model.UtilDisk)
			batch[i] = monitord.BatchMachine{Machine: names[i], Sampler: synths[i]}
			reports[i] = wire.UtilReport{Machine: names[i], Entries: []wire.UtilEntry{
				{Source: model.UtilCPU}, {Source: model.UtilDisk},
			}}
		}
		// churn moves a tenth of the rack, as rack-sharded does per tick.
		churn := func(i int) {
			for k := 0; k < n/10+1; k++ {
				m := (i*7 + k*13) % n
				u := units.Fraction((i+k)%100) / 100
				synths[m].Set(model.UtilCPU, u)
				reports[m].Entries[0].Util = u
			}
		}
		run := func(name string, op func(i int)) {
			b.Run(fmt.Sprintf("%s/machines=%d", name, n), func(b *testing.B) {
				op(0) // warm the reused storage
				b.ReportAllocs()
				b.ResetTimer()
				for i := 1; i <= b.N; i++ {
					op(i)
				}
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
			})
		}

		run("sample", func(i int) {
			churn(i)
			for _, s := range synths {
				if _, err := s.Sample(); err != nil {
					b.Fatal(err)
				}
			}
		})

		var dgrams [][]byte
		for off := 0; off < n; off += wire.MaxBatchMachines {
			dgrams = append(dgrams, nil)
		}
		encode := func(i int) {
			churn(i)
			for k := range dgrams {
				off := k * wire.MaxBatchMachines
				chunk := wire.UtilBatch{Reports: reports[off:min(off+wire.MaxBatchMachines, n)]}
				for r := range chunk.Reports {
					chunk.Reports[r].Seq = uint32(i)
				}
				if dgrams[k], err = wire.AppendUtilBatch(dgrams[k][:0], &chunk); err != nil {
					b.Fatal(err)
				}
			}
		}
		run("encode", encode)

		table := make(map[string]string, n)
		for _, m := range names {
			table[m] = m
		}
		intern := func(name []byte) string { return table[string(name)] }
		var decoded wire.UtilBatch
		run("decode", func(int) {
			for _, d := range dgrams {
				if err := wire.UnmarshalUtilBatchInto(&decoded, d, intern); err != nil {
					b.Fatal(err)
				}
			}
		})

		run("apply", func(i int) {
			churn(i)
			for m := range reports {
				if sol.ApplyUtilization(m, reports[m].Entries) != 0 {
					b.Fatal("unknown source")
				}
			}
		})

		send := loopback(b, sol, batch)
		run("loopback", func(i int) {
			churn(i)
			send()
		})
	}
}
