package solver

import (
	"fmt"
	"testing"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

// BenchmarkRoomStep is the serial kernel size sweep behind
// docs/performance.md's "Room layout": ns per machine-step at
// Workers:1 on RackCluster (racks of 40) and DefaultCluster rooms from
// in-cache sizes to far beyond the last-level cache. It uses only the
// public API, so the same file runs unchanged against older kernels.
// The 100 000-machine tier is skipped under -short.
func BenchmarkRoomStep(b *testing.B) {
	for _, kind := range []string{"rack", "default"} {
		for _, n := range []int{40, 1000, 4000, 20000, 100000} {
			b.Run(fmt.Sprintf("%s/machines=%d", kind, n), func(b *testing.B) {
				if n > 20000 && testing.Short() {
					b.Skip("100 000-machine tier skipped under -short")
				}
				var c *model.Cluster
				var err error
				if kind == "rack" {
					c, err = model.RackCluster("room", n/40, 40, nil)
				} else {
					c, err = model.DefaultCluster("room", n)
				}
				if err != nil {
					b.Fatal(err)
				}
				s, err := New(c, Config{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				for i, name := range s.Machines() {
					if err := s.SetUtilization(name, model.UtilCPU, units.Fraction(i%10)/10); err != nil {
						b.Fatal(err)
					}
				}
				s.StepN(5)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Step()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/machine-step")
			})
		}
	}
}
