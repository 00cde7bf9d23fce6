package physical

import (
	"time"

	"github.com/darklab/mercury/internal/stats"
	"github.com/darklab/mercury/internal/trace"
)

// Measurements holds the sensor time series recorded while the
// reference machine ran a benchmark — the stand-in for the paper's
// logged thermometer and in-disk sensor readings.
type Measurements struct {
	CPUAir *stats.Series
	Disk   *stats.Series
}

// Replay runs the reference machine through a utilization trace
// (machine names in the trace are ignored; the reference machine is a
// single box) on the schedule of trace.Walk, and records sensor
// readings every sampleEvery of emulated time.
func (r *RefServer) Replay(tr *trace.Trace, sampleEvery time.Duration) *Measurements {
	m := &Measurements{
		CPUAir: stats.NewSeries("cpu_air measured"),
		Disk:   stats.NewSeries("disk measured"),
	}
	// Neither callback fails, so neither does the walk.
	_ = tr.Walk(r, sampleEvery, func(rec trace.Record) error {
		r.SetUtilization(rec.Source, rec.Util)
		return nil
	}, func(at time.Duration) error {
		m.CPUAir.Add(at, float64(r.ReadCPUAirSensor()))
		m.Disk.Add(at, float64(r.ReadDiskSensor()))
		return nil
	})
	return m
}
