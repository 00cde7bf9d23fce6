package solver

import (
	"fmt"
	"testing"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/thermo"
	"github.com/darklab/mercury/internal/units"
)

// BenchmarkRoomStep is the serial kernel size sweep behind
// docs/performance.md's "Room layout", "Pair kernel" and "Quad kernel
// over shared coefficient sets": ns per machine-step at Workers:1 on
// RackCluster (racks of 40), DefaultCluster, mixed and distinct rooms
// from in-cache sizes to far beyond the last-level cache, plus the
// grouping edges — one machine, which steps paired with itself, and 41
// machines, which leave one. A mixed room alternates DefaultServers and
// 4-core CMP servers, so no two neighbours share a shape. A distinct
// room is DefaultCluster's with every machine given its own fan flow,
// so no two machines share a coefficient set and every machine steps
// through the pair kernel. It uses only the public API, so the same
// file runs unchanged against older kernels. The 100 000-machine tiers
// are skipped under -short.
func BenchmarkRoomStep(b *testing.B) {
	type tier struct {
		kind string
		n    int
	}
	tiers := []tier{{"default", 1}, {"default", 41}}
	for _, kind := range []string{"rack", "default", "mixed", "distinct"} {
		for _, n := range []int{40, 1000, 4000, 20000, 100000} {
			tiers = append(tiers, tier{kind, n})
		}
	}
	for _, tr := range tiers {
		kind, n := tr.kind, tr.n
		b.Run(fmt.Sprintf("%s/machines=%d", kind, n), func(b *testing.B) {
			if n > 20000 && testing.Short() {
				b.Skip("100 000-machine tier skipped under -short")
			}
			var c *model.Cluster
			var err error
			switch kind {
			case "rack":
				c, err = model.RackCluster("room", n/40, 40, nil)
			case "default", "distinct":
				c, err = model.DefaultCluster("room", n)
			case "mixed":
				c, err = mixedRoom(n)
			}
			if err != nil {
				b.Fatal(err)
			}
			s, err := New(c, Config{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			for i, name := range s.Machines() {
				src := model.UtilCPU
				if kind == "mixed" && i%2 == 1 {
					src = model.CoreUtil(0) // a CMP server loads one core
				}
				if err := s.SetUtilization(name, src, units.Fraction(i%10)/10); err != nil {
					b.Fatal(err)
				}
				if kind == "distinct" {
					flow := model.Table1.FanFlow * units.CubicFeetPerMinute(1+float64(i)/float64(n))
					if err := s.SetFanFlow(name, flow); err != nil {
						b.Fatal(err)
					}
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

// mixedRoom is DefaultCluster's room with every second machine a
// 4-core CMP server.
func mixedRoom(n int) (*model.Cluster, error) {
	c, err := model.DefaultCluster("room", n)
	if err != nil {
		return nil, err
	}
	for i := 1; i < n; i += 2 {
		if c.Machines[i], err = model.CMPServer(c.Machines[i].Name, 4); err != nil {
			return nil, err
		}
	}
	return c, c.Validate()
}

// BenchmarkRoomBuild times building a room from nothing: the model
// (RackCluster, racks of 40, validated once), the compile (solver.New,
// which validates again) and the probe list, as a solver daemon or the
// room-kernel benchmark boots one. The wide tier is a room of 40
// machines of 512 nodes each, so a name lookup that scans its machine
// shows as a quadratic jump there. The 100 000-machine tier is skipped
// under -short.
func BenchmarkRoomBuild(b *testing.B) {
	type tier struct {
		name  string
		build func() (*model.Cluster, error)
	}
	var tiers []tier
	for _, n := range []int{1000, 20000, 100000} {
		tiers = append(tiers, tier{fmt.Sprintf("rack/machines=%d", n), func() (*model.Cluster, error) {
			return model.RackCluster("room", n/40, 40, nil)
		}})
	}
	tiers = append(tiers, tier{"wide/nodes=512", func() (*model.Cluster, error) {
		c, err := model.DefaultCluster("room", 40)
		if err != nil {
			return nil, err
		}
		for i, m := range c.Machines {
			c.Machines[i] = wideServer(m.Name, 512)
		}
		return c, c.Validate()
	}})
	for _, tr := range tiers {
		b.Run(tr.name, func(b *testing.B) {
			if tr.name == "rack/machines=100000" && testing.Short() {
				b.Skip("100 000-machine tier skipped under -short")
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := tr.build()
				if err != nil {
					b.Fatal(err)
				}
				s, err := New(c, Config{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				benchProbes, _ = s.Probes()
			}
		})
	}
}

// benchProbes keeps BenchmarkRoomBuild's Probes result live.
var benchProbes []string

// wideServer is a machine of n nodes: n/2 components, each heating its
// own air region, the regions chained inlet to exhaust.
func wideServer(name string, n int) *model.Machine {
	m := &model.Machine{Name: name, InletTemp: model.Table1.InletTemp, FanFlow: model.Table1.FanFlow}
	air := func(i int) string { return fmt.Sprintf("air%d", i) }
	for i := 0; i < n/2; i++ {
		part := fmt.Sprintf("part%d", i)
		m.Components = append(m.Components, model.Component{Name: part, Mass: 0.1, SpecificHeat: 896, Power: thermo.Constant(1)})
		m.AirNodes = append(m.AirNodes, model.AirNode{Name: air(i), Inlet: i == 0, Exhaust: i == n/2-1})
		m.HeatEdges = append(m.HeatEdges, model.HeatEdge{A: part, B: air(i), K: 0.5})
		if i > 0 {
			m.AirEdges = append(m.AirEdges, model.AirEdge{From: air(i - 1), To: air(i), Fraction: 1})
		}
	}
	return m
}
