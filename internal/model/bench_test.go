package model

import "testing"

// BenchmarkClusterValidate times Cluster.Validate on the rooms the
// rack-sharded (3 racks of 64) and room-kernel (500 racks of 40)
// workloads boot, where every machine repeats the one before it and
// gets the scalar checks only, and on a mixed room of 20 000, every
// second machine a 4-core CMP server, where none does.
func BenchmarkClusterValidate(b *testing.B) {
	rack := func(racks, perRack int) func() (*Cluster, error) {
		return func() (*Cluster, error) { return RackCluster("room", racks, perRack, nil) }
	}
	tiers := []struct {
		name  string
		build func() (*Cluster, error)
	}{
		{"rack/machines=192", rack(3, 64)},
		{"rack/machines=20000", rack(500, 40)},
		{"mixed/machines=20000", func() (*Cluster, error) {
			c, err := DefaultCluster("room", 20000)
			if err != nil {
				return nil, err
			}
			for i := 1; i < len(c.Machines); i += 2 {
				if c.Machines[i], err = CMPServer(c.Machines[i].Name, 4); err != nil {
					return nil, err
				}
			}
			return c, nil
		}},
	}
	for _, tr := range tiers {
		b.Run(tr.name, func(b *testing.B) {
			c, err := tr.build()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
