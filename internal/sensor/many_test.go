package sensor_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/sensor"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/solverd"
	"github.com/darklab/mercury/internal/units"
	"github.com/darklab/mercury/internal/wire"
)

// startRoom serves a room of Table 1 servers with the given names,
// stepped under uneven loads so every machine and node reads a
// different temperature.
func startRoom(t *testing.T, names []string) (*solverd.Server, []sensor.Probe) {
	t.Helper()
	c := &model.Cluster{
		Name:    "room",
		Sources: []model.ClusterSource{{Name: model.NodeAC, SupplyTemp: model.Table1.InletTemp}},
		Sinks:   []model.ClusterSink{{Name: model.NodeClusterExhaust}},
	}
	for _, m := range names {
		c.Machines = append(c.Machines, model.DefaultServer(m))
		c.Edges = append(c.Edges,
			model.ClusterEdge{From: model.NodeAC, To: m, Fraction: units.Fraction(1 / float64(len(names)))},
			model.ClusterEdge{From: m, To: model.NodeClusterExhaust, Fraction: 1},
		)
	}
	sol, err := solver.New(c, solver.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range names {
		sol.ApplyUtilization(i, []model.UtilSample{
			{Source: model.UtilCPU, Util: units.Fraction(float64(i%7) / 6)},
			{Source: model.UtilDisk, Util: units.Fraction(float64(i%3) / 2)},
		})
	}
	sol.StepN(30)
	srv, err := solverd.Listen("127.0.0.1:0", sol)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	ms, ns := sol.Probes()
	probes := make([]sensor.Probe, len(ms))
	for i := range ms {
		probes[i] = sensor.Probe{Machine: ms[i], Node: ns[i]}
	}
	return srv, probes
}

func roomNames(n int, pad int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("machine%d", i+1)
		if pad > len(names[i]) {
			names[i] += strings.Repeat("x", pad-len(names[i]))
		}
	}
	return names
}

// TestReadManyMatchesRead: every temperature a many-read returns is
// bit-equal to the solver's own reading of the same probe, taken in
// process, for probe sets on both sides of each chunk edge (63 probes
// or 2048 bytes).
func TestReadManyMatchesRead(t *testing.T) {
	for _, room := range []struct {
		name  string
		names []string
		sizes []int
	}{
		{"64 machines", roomNames(64, 0), []int{1, 62, 63, 64, 127}},
		// 240-byte names: a request holds 8 of these probes, so byte
		// size, not the count, cuts the chunks.
		{"long names", roomNames(12, 240), []int{1, 8, 9, 17, 40}},
	} {
		t.Run(room.name, func(t *testing.T) {
			srv, all := startRoom(t, room.names)
			want := map[sensor.Probe]units.Celsius{}
			for _, p := range all {
				v, err := srv.Solver().Temperature(p.Machine, p.Node)
				if err != nil {
					t.Fatal(err)
				}
				want[p] = v
			}
			r, err := sensor.Dial(srv.Addr().String(), sensor.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			rng := rand.New(rand.NewSource(7))
			distinct := map[units.Celsius]bool{}
			for _, n := range room.sizes {
				for rep := 0; rep < 4; rep++ {
					probes := make([]sensor.Probe, n)
					for i := range probes {
						probes[i] = all[rng.Intn(len(all))]
					}
					dst := make([]units.Celsius, n+1)
					dst[n] = -1
					if err := r.ReadMany(probes, dst); err != nil {
						t.Fatalf("%d probes: %v", n, err)
					}
					for i, p := range probes {
						if math.Float64bits(float64(dst[i])) != math.Float64bits(float64(want[p])) {
							t.Fatalf("%d probes: probe %d (%s/%s) = %v, solver reads %v", n, i, p.Machine, p.Node, dst[i], want[p])
						}
						distinct[dst[i]] = true
					}
					if dst[n] != -1 {
						t.Fatalf("%d probes: ReadMany wrote past the probes", n)
					}
				}
			}
			if len(distinct) < 10 {
				t.Fatalf("only %d distinct temperatures; the room does not tell probes apart", len(distinct))
			}
		})
	}
}

// TestReadManyNamesFailingProbe: an unknown probe at index k fails the
// read with an error naming that probe, wherever its chunk falls.
func TestReadManyNamesFailingProbe(t *testing.T) {
	srv, all := startRoom(t, roomNames(64, 0))
	r, err := sensor.Dial(srv.Addr().String(), sensor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, k := range []int{0, 1, 62, 63, 64, 126} {
		probes := append([]sensor.Probe(nil), all[:127]...)
		bad := sensor.Probe{Machine: fmt.Sprintf("ghost%d", k), Node: model.NodeCPU}
		if k%2 == 1 {
			bad = sensor.Probe{Machine: probes[k].Machine, Node: fmt.Sprintf("ghost%d", k)}
		}
		probes[k] = bad
		err := r.ReadMany(probes, make([]units.Celsius, len(probes)))
		if err == nil || !strings.Contains(err.Error(), bad.Machine+"/"+bad.Node+":") {
			t.Errorf("unknown probe at %d: err = %v, want it named", k, err)
		}
	}
	// The reader is still good after a failed read.
	dst := make([]units.Celsius, 3)
	if err := r.ReadMany(all[:3], dst); err != nil {
		t.Fatal(err)
	}
	if err := r.ReadMany(all[:3], dst[:2]); err == nil {
		t.Error("ReadMany into a short dst: want error")
	}
}

// TestReadManyCountsProbes: SensorReads counts probes read, not
// datagrams, so a batched client reports the same traffic.
func TestReadManyCountsProbes(t *testing.T) {
	srv, all := startRoom(t, roomNames(4, 0))
	r, err := sensor.Dial(srv.Addr().String(), sensor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	before := srv.Stats().SensorReads.Load()
	if err := r.ReadMany(all[:5], make([]units.Celsius, 5)); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().SensorReads.Load() - before; got != 5 {
		t.Errorf("5-probe read added %d to SensorReads, want 5", got)
	}
}

// TestReadManyAllocations: a warm many-read of several chunks
// allocates nothing on the real clock. On a Virtual clock each round
// trip allocates its clock waiter and stop closure, as a single read
// does.
func TestReadManyAllocations(t *testing.T) {
	srv, all := startRoom(t, roomNames(64, 0))
	addr := srv.Addr().String()
	real, err := sensor.Dial(addr, sensor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer real.Close()
	dst := make([]units.Celsius, 127)
	read := func(r *sensor.Reader, probes []sensor.Probe) func() {
		return func() {
			if err := r.ReadMany(probes, dst); err != nil {
				t.Fatal(err)
			}
		}
	}
	read(real, all[:127])()
	if n := testing.AllocsPerRun(50, read(real, all[:127])); n != 0 {
		t.Errorf("real clock, 127 probes: %v allocs/op, want 0", n)
	}
	virt, err := sensor.Dial(addr, sensor.Options{Clock: clock.NewVirtual()})
	if err != nil {
		t.Fatal(err)
	}
	defer virt.Close()
	read(virt, all[:wire.MaxSensorProbes])()
	if n := testing.AllocsPerRun(50, read(virt, all[:wire.MaxSensorProbes])); n != 2 {
		t.Errorf("virtual clock, one chunk: %v allocs/op, want 2", n)
	}
}
