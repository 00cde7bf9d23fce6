package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/darklab/mercury/internal/lvs"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/procfs"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/units"
	"github.com/darklab/mercury/internal/wire"
)

// Layer twins: calls the drivers cannot time in place — the balancer
// inside webcluster.TickSecond, the codec inside monitord and solverd,
// the kernel behind solverd's ticker — are timed on a twin built with
// the workload's own sizes.

// twinReport is a representative utilization report: the two streams
// every emulated machine reports.
func twinReport(machine string, seq uint32) wire.UtilReport {
	return wire.UtilReport{Machine: machine, Seq: seq, Entries: []wire.UtilEntry{
		{Source: model.UtilCPU, Util: 0.42},
		{Source: model.UtilDisk, Util: 0.17},
	}}
}

// twinBatch is a full MsgUtilBatch datagram's worth of reports.
func twinBatch(n int) *wire.UtilBatch {
	b := &wire.UtilBatch{}
	for i := 0; i < n; i++ {
		b.Reports = append(b.Reports, twinReport(fmt.Sprintf("machine%d", i+1), 7))
	}
	return b
}

// utilTraffic is the utilization traffic one emulated second puts on
// the wire for an online spec: datagrams and their marshalled bytes.
func utilTraffic(sp onlineSpec) (datagrams, bytes float64) {
	if !sp.batch {
		return float64(sp.machines), float64(sp.machines * wire.UtilUpdateSize)
	}
	for off := 0; off < sp.machines; off += wire.MaxBatchMachines {
		n := sp.machines - off
		if n > wire.MaxBatchMachines {
			n = wire.MaxBatchMachines
		}
		buf, err := wire.MarshalUtilBatch(twinBatch(n))
		if err != nil {
			return 0, 0
		}
		datagrams++
		bytes += float64(len(buf))
	}
	return datagrams, bytes
}

// layerMicros times the balancer at the workload's server count and
// the wire codec on representative messages. boundary is the number of
// records in one boundary datagram (1 where the workload sends none,
// so the line is still comparable).
func layerMicros(r *report, servers, boundary int) {
	const n = 20000
	if servers > 0 {
		bal := lvs.New()
		for i := 0; i < servers; i++ {
			_ = bal.AddServer(fmt.Sprintf("machine%d", i+1), 1) // fresh names cannot collide
		}
		r.set("lvs.assign_ns", nsPer(n, func() {
			if name, err := bal.AssignClass("dynamic"); err == nil {
				_ = bal.Done(name) // just assigned, so it has a connection to release
			}
		}))
	}

	rep := twinReport("machine1", 7)
	upd := &wire.UtilUpdate{Machine: rep.Machine, Seq: rep.Seq, Entries: rep.Entries}
	updBuf, _ := wire.MarshalUtilUpdate(upd)
	r.set("wire.util_marshal_ns", nsPer(n, func() { wire.MarshalUtilUpdate(upd) }))
	r.set("wire.util_unmarshal_ns", nsPer(n, func() { wire.UnmarshalUtilUpdate(updBuf) }))

	batch := twinBatch(wire.MaxBatchMachines)
	batchBuf, _ := wire.MarshalUtilBatch(batch)
	r.set("wire.batch_marshal_ns", nsPer(n, func() { wire.MarshalUtilBatch(batch) }))
	r.set("wire.batch_unmarshal_ns", nsPer(n, func() { wire.UnmarshalUtilBatch(batchBuf) }))

	if boundary < 1 {
		boundary = 1
	}
	if boundary > wire.MaxBoundaryRecords {
		boundary = wire.MaxBoundaryRecords
	}
	be := &wire.BoundaryExchange{Region: 0, Tick: 9, Records: make([]wire.BoundaryRecord, boundary)}
	for i := range be.Records {
		be.Records[i] = wire.BoundaryRecord{Machine: uint32(i), Temp: 31.5}
	}
	r.set("wire.boundary_marshal_ns", nsPer(n, func() { wire.MarshalBoundaryExchange(be) }))

	syn := procfs.NewSynthetic(model.UtilCPU, model.UtilDisk)
	r.set("procfs.sample_allocs", allocsPer(1000, func() { syn.Sample() }))
}

// loadTwin puts a fixed mid-range load on every machine so the twin's
// step does representative work.
func loadTwin(sol *solver.Solver, names []string) error {
	for i, m := range names {
		if err := sol.SetUtilization(m, model.UtilCPU, units.Fraction(0.2+0.6*float64(i%7)/7)); err != nil {
			return err
		}
	}
	return nil
}

// solverTwin times the kernel alone on a solver built from the
// workload's cluster: step, utilization write, full temperature read,
// step allocations, and the Workers:nproc speed-up over Workers:1.
func solverTwin(r *report, cm *model.Cluster, quick bool) error {
	steps := 2000
	if quick {
		steps = 200
	}
	if len(cm.Machines) > 1000 {
		steps /= 10
	}
	mark(0, "solver twin")
	sol, err := solver.New(cm, solver.Config{Workers: 1})
	if err != nil {
		return err
	}
	names := sol.Machines()
	if err := loadTwin(sol, names); err != nil {
		return err
	}
	stepUs := timeSteps(sol, steps)
	r.setTiming("solver.step_us", stepUs)
	r.set("solver.machine_steps_per_s", float64(len(names))/stepUs.median()*1e6)
	r.set("solver.step_allocs", allocsPer(20, sol.Step))
	i := 0
	r.set("solver.set_util_ns", nsPer(20000, func() {
		_ = sol.SetUtilization(names[i%len(names)], model.UtilCPU, 0.5) // names come from the solver
		i++
	}))
	ms, _ := sol.Probes()
	dst := make([]float64, len(ms))
	r.set("solver.read_all_temps_us", nsPer(200, func() { sol.ReadAllTemps(dst) })/1e3)

	par, err := solver.New(cm, solver.Config{Workers: runtime.NumCPU()})
	if err != nil {
		return err
	}
	if err := loadTwin(par, names); err != nil {
		return err
	}
	r.set("solver.parallel_speedup", stepUs.median()/timeSteps(par, steps).median())
	return nil
}

// timeSteps steps sol n times and returns each step's microseconds.
func timeSteps(sol *solver.Solver, n int) samples {
	us := make(samples, n)
	for i := range us {
		t0 := time.Now()
		sol.Step()
		us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return us
}
