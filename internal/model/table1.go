package model

import (
	"fmt"

	"github.com/darklab/mercury/internal/thermo"
	"github.com/darklab/mercury/internal/units"
)

// Canonical node names of the validation server (Figure 1a/1b).
const (
	NodeDiskPlatters = "disk_platters"
	NodeDiskShell    = "disk_shell"
	NodeCPU          = "cpu"
	NodePowerSupply  = "power_supply"
	NodeMotherboard  = "motherboard"

	NodeInlet     = "inlet"
	NodeDiskAir   = "disk_air"
	NodeDiskAirDS = "disk_air_ds"
	NodePSAir     = "ps_air"
	NodePSAirDS   = "ps_air_ds"
	NodeVoidAir   = "void_air"
	NodeCPUAir    = "cpu_air"
	NodeCPUAirDS  = "cpu_air_ds"
	NodeExhaust   = "exhaust"
)

// Canonical cluster vertex names (Figure 1c).
const (
	NodeAC             = "ac"
	NodeClusterExhaust = "cluster_exhaust"
)

// Table1 holds the constants of Table 1 of the paper: the physical
// description of the Pentium III validation server used throughout the
// Mercury validation and the Freon studies.
var Table1 = struct {
	DiskPlattersMass units.Kilograms
	DiskShellMass    units.Kilograms
	CPUMass          units.Kilograms
	PowerSupplyMass  units.Kilograms
	MotherboardMass  units.Kilograms

	DiskPower        thermo.Linear
	CPUPower         thermo.Linear
	PowerSupplyPower units.Watts
	MotherboardPower units.Watts

	InletTemp units.Celsius
	FanFlow   units.CubicFeetPerMinute

	KDiskPlattersShell units.WattsPerKelvin
	KDiskShellAir      units.WattsPerKelvin
	KCPUAir            units.WattsPerKelvin
	KPowerSupplyAir    units.WattsPerKelvin
	KMotherboardAir    units.WattsPerKelvin
	KMotherboardCPU    units.WattsPerKelvin
}{
	DiskPlattersMass: 0.336,
	DiskShellMass:    0.505,
	CPUMass:          0.151,
	PowerSupplyMass:  1.643,
	MotherboardMass:  0.718,

	DiskPower:        thermo.Linear{PBase: 9, PMax: 14},
	CPUPower:         thermo.Linear{PBase: 7, PMax: 31},
	PowerSupplyPower: 40,
	MotherboardPower: 4,

	InletTemp: 21.6,
	FanFlow:   38.6,

	KDiskPlattersShell: 2.0,
	KDiskShellAir:      1.9,
	KCPUAir:            0.75,
	KPowerSupplyAir:    4,
	KMotherboardAir:    10,
	KMotherboardCPU:    0.1,
}

// DefaultServer builds the thermal model of the validation server:
// the heat-flow graph of Figure 1(a), the air-flow graph of Figure
// 1(b), and the constants of Table 1. The returned machine validates
// cleanly and is the starting point for calibration.
func DefaultServer(name string) *Machine {
	t := Table1
	return &Machine{
		Name: name,
		Components: []Component{
			{Name: NodeDiskPlatters, Mass: t.DiskPlattersMass, SpecificHeat: units.AluminumSpecificHeat,
				Power: t.DiskPower, Util: UtilDisk},
			{Name: NodeDiskShell, Mass: t.DiskShellMass, SpecificHeat: units.AluminumSpecificHeat},
			{Name: NodeCPU, Mass: t.CPUMass, SpecificHeat: units.AluminumSpecificHeat,
				Power: t.CPUPower, Util: UtilCPU},
			{Name: NodePowerSupply, Mass: t.PowerSupplyMass, SpecificHeat: units.AluminumSpecificHeat,
				Power: thermo.Constant(t.PowerSupplyPower)},
			{Name: NodeMotherboard, Mass: t.MotherboardMass, SpecificHeat: units.FR4SpecificHeat,
				Power: thermo.Constant(t.MotherboardPower)},
		},
		AirNodes: []AirNode{
			{Name: NodeInlet, Inlet: true},
			{Name: NodeDiskAir},
			{Name: NodeDiskAirDS},
			{Name: NodePSAir},
			{Name: NodePSAirDS},
			{Name: NodeVoidAir},
			{Name: NodeCPUAir},
			{Name: NodeCPUAirDS},
			{Name: NodeExhaust, Exhaust: true},
		},
		HeatEdges: []HeatEdge{
			{A: NodeDiskPlatters, B: NodeDiskShell, K: t.KDiskPlattersShell},
			{A: NodeDiskShell, B: NodeDiskAir, K: t.KDiskShellAir},
			{A: NodeCPU, B: NodeCPUAir, K: t.KCPUAir},
			{A: NodePowerSupply, B: NodePSAir, K: t.KPowerSupplyAir},
			{A: NodeMotherboard, B: NodeVoidAir, K: t.KMotherboardAir},
			{A: NodeMotherboard, B: NodeCPU, K: t.KMotherboardCPU},
		},
		AirEdges: []AirEdge{
			{From: NodeInlet, To: NodeDiskAir, Fraction: 0.4},
			{From: NodeInlet, To: NodePSAir, Fraction: 0.5},
			{From: NodeInlet, To: NodeVoidAir, Fraction: 0.1},
			{From: NodeDiskAir, To: NodeDiskAirDS, Fraction: 1.0},
			{From: NodeDiskAirDS, To: NodeVoidAir, Fraction: 1.0},
			{From: NodePSAir, To: NodePSAirDS, Fraction: 1.0},
			{From: NodePSAirDS, To: NodeVoidAir, Fraction: 0.85},
			{From: NodePSAirDS, To: NodeCPUAir, Fraction: 0.15},
			{From: NodeVoidAir, To: NodeCPUAir, Fraction: 0.05},
			{From: NodeVoidAir, To: NodeExhaust, Fraction: 0.95},
			{From: NodeCPUAir, To: NodeCPUAirDS, Fraction: 1.0},
			{From: NodeCPUAirDS, To: NodeExhaust, Fraction: 1.0},
		},
		InletTemp: t.InletTemp,
		FanFlow:   t.FanFlow,
	}
}

// SingleRoom wraps a standalone machine in a minimal room: one source
// named "room" supplying the machine's inlet temperature, one sink
// named "room_exhaust". It is how a single-machine model runs.
func SingleRoom(m *Machine) *Cluster {
	return &Cluster{
		Name:     m.Name + "-room",
		Machines: []*Machine{m},
		Sources:  []ClusterSource{{Name: "room", SupplyTemp: m.InletTemp}},
		Sinks:    []ClusterSink{{Name: "room_exhaust"}},
		Edges: []ClusterEdge{
			{From: "room", To: m.Name, Fraction: 1},
			{From: m.Name, To: "room_exhaust", Fraction: 1},
		},
	}
}

// DefaultCluster builds the Figure 1(c) machine room: n identical
// validation servers named machine1..machineN fed by a single air
// conditioner with equal shares, all exhausting into one return plenum.
// There is no recirculation, matching the paper's "ideal situation".
func DefaultCluster(name string, n int) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("model: cluster needs at least 1 machine, got %d", n)
	}
	c := &Cluster{
		Name:    name,
		Sources: []ClusterSource{{Name: NodeAC, SupplyTemp: Table1.InletTemp}},
		Sinks:   []ClusterSink{{Name: NodeClusterExhaust}},
	}
	share := units.Fraction(1.0 / float64(n))
	for i := 1; i <= n; i++ {
		mname := fmt.Sprintf("machine%d", i)
		c.Machines = append(c.Machines, DefaultServer(mname))
		c.Edges = append(c.Edges,
			ClusterEdge{From: NodeAC, To: mname, Fraction: share},
			ClusterEdge{From: mname, To: NodeClusterExhaust, Fraction: 1},
		)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}
