package sensor_test

import (
	"testing"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/sensor"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/solverd"
)

// Section 2.3: readsensor() averages ~300us over UDP in the paper
// (against ~500us for a real SCSI in-disk sensor).
func BenchmarkReadSensor(b *testing.B) {
	sol, err := solver.NewSingle(model.DefaultServer("m1"), solver.Config{})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := solverd.Listen("127.0.0.1:0", sol)
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	sd, err := sensor.Open(srv.Addr().String(), "m1", model.NodeCPU)
	if err != nil {
		b.Fatal(err)
	}
	defer sd.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sd.Read(); err != nil {
			b.Fatal(err)
		}
	}
}
