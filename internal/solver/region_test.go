package solver

import (
	"errors"
	"fmt"
	"testing"

	"github.com/darklab/mercury/internal/model"
)

// TestPartitionRegions checks that the region partition is an exact
// cover that keeps recirculation components (racks) together whenever
// they fit.
func TestPartitionRegions(t *testing.T) {
	c, err := model.RackCluster("room", 2, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	regions, err := PartitionRegions(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 2 {
		t.Fatalf("got %d regions, want 2", len(regions))
	}
	seen := map[string]int{}
	for r, names := range regions {
		for _, n := range names {
			if prev, dup := seen[n]; dup {
				t.Fatalf("machine %s in regions %d and %d", n, prev, r)
			}
			seen[n] = r
		}
	}
	if len(seen) != 8 {
		t.Fatalf("partition covers %d machines, want 8", len(seen))
	}
	// Two racks of four fit two regions exactly, so no rack is split:
	// every machine of a rack shares its rack-mates' region.
	for r := 1; r <= 2; r++ {
		reg := seen[model.RackMachine(r, 1)]
		for h := 2; h <= 4; h++ {
			if got := seen[model.RackMachine(r, h)]; got != reg {
				t.Errorf("rack %d split: pos1 in region %d, pos%d in region %d", r, reg, h, got)
			}
		}
	}

	if _, err := PartitionRegions(c, 0); err == nil {
		t.Error("PartitionRegions(c, 0) succeeded")
	}
	if _, err := PartitionRegions(c, 9); err == nil {
		t.Error("PartitionRegions(c, 9) succeeded, only 8 machines")
	}
	four, err := PartitionRegions(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, names := range four {
		total += len(names)
	}
	if len(four) != 4 || total != 8 {
		t.Errorf("PartitionRegions(c, 4) = %d regions over %d machines, want 4 over 8", len(four), total)
	}
}

// TestRegionConfigValidation exercises the Config.Regions error paths.
func TestRegionConfigValidation(t *testing.T) {
	c, err := model.RackCluster("room", 1, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := func(h int) string { return model.RackMachine(1, h) }
	cases := []struct {
		name string
		cfg  Config
	}{
		{"region index out of range", Config{Regions: [][]string{{m(1), m(2)}, {m(3), m(4)}}, RegionIndex: 2}},
		{"unknown machine", Config{Regions: [][]string{{m(1), "nope"}, {m(2), m(3), m(4)}}}},
		{"duplicate machine", Config{Regions: [][]string{{m(1), m(2)}, {m(2), m(3), m(4)}}}},
		{"uncovered machine", Config{Regions: [][]string{{m(1), m(2)}, {m(3)}}}},
	}
	for _, tc := range cases {
		if _, err := New(c, tc.cfg); err == nil {
			t.Errorf("%s: New succeeded", tc.name)
		}
	}
}

// TestRegionQueries checks that a partitioned instance answers only
// for its own machines and routes everything else with
// ErrRemoteMachine.
func TestRegionQueries(t *testing.T) {
	c, err := model.RackCluster("room", 1, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	regions, err := PartitionRegions(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := New(c, Config{Regions: regions, RegionIndex: 0})
	if err != nil {
		t.Fatal(err)
	}
	if idx, total := sol.Region(); idx != 0 || total != 2 {
		t.Fatalf("Region() = (%d, %d), want (0, 2)", idx, total)
	}
	if got := sol.Machines(); len(got) != len(regions[0]) {
		t.Fatalf("Machines() = %v, want region 0's %v", got, regions[0])
	}
	local, remote := regions[0][0], regions[1][0]
	if _, err := sol.Temperature(local, model.NodeCPU); err != nil {
		t.Errorf("local temperature: %v", err)
	}
	var rerr *ErrRemoteMachine
	if _, err := sol.Temperature(remote, model.NodeCPU); !errors.As(err, &rerr) {
		t.Errorf("remote temperature: got %v, want ErrRemoteMachine", err)
	}
	if err := sol.SetUtilization(remote, model.UtilCPU, 0.5); !errors.As(err, &rerr) {
		t.Errorf("remote utilization: got %v, want ErrRemoteMachine", err)
	}
	if r, err := sol.MachineRegion(remote); err != nil || r != 1 {
		t.Errorf("MachineRegion(%s) = (%d, %v), want (1, nil)", remote, r, err)
	}
	// The boundary sets of the two halves of one 4-machine
	// recirculation chain meet only at the cut.
	peers := sol.BoundaryPeers()
	if len(peers) != 1 || peers[0] != 1 {
		t.Fatalf("BoundaryPeers() = %v, want [1]", peers)
	}
	if out := sol.BoundaryOutTo(1); len(out) == 0 {
		t.Error("BoundaryOutTo(1) is empty; the chain cut must export at least one exhaust")
	}
}

// TestRegionBoundaryBitIdentical is the core sharding invariant: one
// 8-machine recirculation chain split across two region instances,
// exchanging boundary exhausts each tick, stays bit-identical to the
// unpartitioned solver — through utilization changes, a mid-run AC
// setpoint change crossing the cut, serially and on the worker pool.
func TestRegionBoundaryBitIdentical(t *testing.T) {
	c, err := model.RackCluster("room", 1, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	regions, err := PartitionRegions(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Workers: 1},
		{Workers: 2},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("workers=%d", cfg.Workers), func(t *testing.T) {
			full, err := New(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			shards := make([]*Solver, 2)
			for i := range shards {
				sc := cfg
				sc.Regions = regions
				sc.RegionIndex = i
				if shards[i], err = New(c, sc); err != nil {
					t.Fatal(err)
				}
			}
			// The two views of each boundary must agree exactly.
			for i, sh := range shards {
				for _, peer := range sh.BoundaryPeers() {
					out := sh.BoundaryOutTo(peer)
					in := shards[peer].BoundaryInFrom(i)
					if len(out) != len(in) {
						t.Fatalf("shard %d exports %d to %d, peer expects %d", i, len(out), peer, len(in))
					}
					for k := range out {
						if out[k] != in[k] {
							t.Fatalf("boundary sets disagree: %v vs %v", out, in)
						}
					}
				}
			}
			owner := map[string]*Solver{}
			for i, names := range regions {
				for _, n := range names {
					owner[n] = shards[i]
				}
			}
			buf := make([]float64, len(c.Machines))
			exchange := func() {
				for i, sh := range shards {
					for _, peer := range sh.BoundaryPeers() {
						out := sh.BoundaryOutTo(peer)
						if len(out) == 0 {
							continue
						}
						n := sh.ExportBoundary(peer, buf)
						if n != len(out) {
							t.Fatalf("ExportBoundary wrote %d of %d", n, len(out))
						}
						if err := shards[peer].ImportBoundaryTemps(i, out, buf[:n]); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			for tick := 1; tick <= 400; tick++ {
				switch tick {
				case 50:
					for _, m := range []string{model.RackMachine(1, 2), model.RackMachine(1, 6)} {
						if err := full.SetUtilization(m, model.UtilCPU, 0.8); err != nil {
							t.Fatal(err)
						}
						if err := owner[m].SetUtilization(m, model.UtilCPU, 0.8); err != nil {
							t.Fatal(err)
						}
					}
				case 200:
					// AC setpoint change: a source is global, so every
					// instance applies it (the broadcast path in sharded
					// online runs).
					if err := full.SetSourceTemperature(model.NodeAC, 30); err != nil {
						t.Fatal(err)
					}
					for _, sh := range shards {
						if err := sh.SetSourceTemperature(model.NodeAC, 30); err != nil {
							t.Fatal(err)
						}
					}
				}
				full.Step()
				for _, sh := range shards {
					sh.Step()
				}
				exchange()
				for _, m := range c.Machines {
					want, err := full.Temperatures(m.Name)
					if err != nil {
						t.Fatal(err)
					}
					got, err := owner[m.Name].Temperatures(m.Name)
					if err != nil {
						t.Fatal(err)
					}
					for node, w := range want {
						if got[node] != w {
							t.Fatalf("tick %d %s/%s: sharded %v != full %v", tick, m.Name, node, got[node], w)
						}
					}
				}
			}
		})
	}
}
