package model

import (
	"fmt"

	"github.com/darklab/mercury/internal/units"
)

// RackMachine returns the machine name at a rack position (1-based
// rack and height; height 1 is the bottom of the rack).
func RackMachine(rack, height int) string {
	return fmt.Sprintf("rack%dpos%d", rack, height)
}

// RackCluster builds a machine room with air recirculation inside each
// rack: a share of every machine's exhaust feeds the inlet of the
// machine above it, growing with height — the cause of the "hot spots
// at the top sections of computer racks" the paper's introduction
// lists among thermal emergencies. The AC supplies the remainder of
// every inlet.
//
// recirc[h] is the share of the inlet of the machine at height h+2
// that comes from the exhaust below it (height 1 draws only AC air),
// so len(recirc) must be perRack-1 and every value must lie in [0, 1).
// A nil recirc selects the default profile 0.15, 0.25, 0.35, ...
// capped at 0.45.
func RackCluster(name string, racks, perRack int, recirc []units.Fraction) (*Cluster, error) {
	if racks < 1 || perRack < 1 {
		return nil, fmt.Errorf("model: rack cluster needs at least 1 rack and 1 machine, got %dx%d", racks, perRack)
	}
	if recirc == nil {
		recirc = make([]units.Fraction, perRack-1)
		for i := range recirc {
			f := 0.15 + float64(0.10*float64(i))
			if f > 0.45 {
				f = 0.45
			}
			recirc[i] = units.Fraction(f)
		}
	}
	if len(recirc) != perRack-1 {
		return nil, fmt.Errorf("model: need %d recirculation fractions for %d machines per rack, got %d",
			perRack-1, perRack, len(recirc))
	}
	for i, f := range recirc {
		if !f.Valid() || f >= 1 {
			return nil, fmt.Errorf("model: recirculation fraction %d = %v outside [0,1)", i, float64(f))
		}
	}

	c := &Cluster{
		Name:    name,
		Sources: []ClusterSource{{Name: NodeAC, SupplyTemp: Table1.InletTemp}},
		Sinks:   []ClusterSink{{Name: NodeClusterExhaust}},
	}
	// One edge per physical flow. Its fraction does double duty: it is
	// the share of the origin machine's exhaust (out-fractions per
	// machine must sum to 1) and the relative weight of the
	// destination's intake mix. Choosing the recirculated intake share
	// s as the edge fraction and 1-s for the AC edge satisfies both
	// sides at once.
	for r := 1; r <= racks; r++ {
		below := "" // the name of the machine at height h-1
		for h := 1; h <= perRack; h++ {
			mname := RackMachine(r, h)
			c.Machines = append(c.Machines, DefaultServer(mname))

			if h == 1 {
				c.Edges = append(c.Edges, ClusterEdge{From: NodeAC, To: mname, Fraction: 1})
			} else {
				share := recirc[h-2]
				if share > 0 {
					c.Edges = append(c.Edges,
						ClusterEdge{From: NodeAC, To: mname, Fraction: 1 - share},
						ClusterEdge{From: below, To: mname, Fraction: share},
					)
				} else {
					c.Edges = append(c.Edges, ClusterEdge{From: NodeAC, To: mname, Fraction: 1})
				}
			}

			// Exhaust split: the share feeding the machine above is the
			// same edge added by that machine's intake loop, so here we
			// only add the room-return remainder.
			up := units.Fraction(0)
			if h < perRack {
				up = recirc[h-1]
			}
			c.Edges = append(c.Edges, ClusterEdge{From: mname, To: NodeClusterExhaust, Fraction: 1 - up})
			below = mname
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// RackRegions maps every machine of a RackCluster to its rack number,
// the natural Freon-EC region assignment ("common thermal emergencies
// will likely affect all servers of a region").
func RackRegions(racks, perRack int) map[string]int {
	out := map[string]int{}
	for r := 1; r <= racks; r++ {
		for h := 1; h <= perRack; h++ {
			out[RackMachine(r, h)] = r
		}
	}
	return out
}
