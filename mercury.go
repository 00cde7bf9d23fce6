// Package mercury is the public API of the Mercury & Freon suite, a
// reproduction of "Mercury and Freon: Temperature Emulation and
// Management for Server Systems" (Heath et al., ASPLOS 2006).
//
// Mercury emulates component and air temperatures for single servers
// and clusters from simple heat-flow/air-flow graphs, physical
// constants, and dynamic component utilizations. The entire software
// stack runs natively against it: a solver daemon answers emulated
// sensor reads over UDP, monitoring daemons feed it utilizations
// sampled from /proc, and the fiddle tool injects repeatable thermal
// emergencies. Freon builds on Mercury to manage thermal emergencies
// in a web server cluster without unnecessary throughput loss, and
// Freon-EC additionally conserves energy.
//
// # Quick start
//
//	machine := mercury.DefaultServer("server")
//	sol, err := mercury.NewSolver(machine, mercury.SolverConfig{})
//	if err != nil { ... }
//	sol.SetUtilization("server", mercury.UtilCPU, 0.7)
//	sol.Run(30 * time.Minute) // emulated time
//	temp, _ := sol.Temperature("server", mercury.NodeCPU)
//
// Models can also be written in the suite's modified dot language and
// parsed with ParseMachine/ParseCluster; see the examples directory
// for end-to-end scenarios including the networked daemons and the
// Freon policies.
package mercury

import (
	"time"

	"github.com/darklab/mercury/internal/dotlang"
	"github.com/darklab/mercury/internal/fiddle"
	"github.com/darklab/mercury/internal/freon"
	"github.com/darklab/mercury/internal/lvs"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/monitord"
	"github.com/darklab/mercury/internal/procfs"
	"github.com/darklab/mercury/internal/sensor"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/solverd"
	"github.com/darklab/mercury/internal/thermo"
	"github.com/darklab/mercury/internal/trace"
	"github.com/darklab/mercury/internal/units"
	"github.com/darklab/mercury/internal/wire"
)

// Physical quantity types.
type (
	// Celsius is a temperature.
	Celsius = units.Celsius
	// Watts is power.
	Watts = units.Watts
	// Joules is energy.
	Joules = units.Joules
	// Kilograms is mass.
	Kilograms = units.Kilograms
	// JoulesPerKgK is specific heat capacity.
	JoulesPerKgK = units.JoulesPerKgK
	// WattsPerKelvin is a lumped heat-transfer constant.
	WattsPerKelvin = units.WattsPerKelvin
	// Fraction is a ratio in [0,1] (utilization, air split).
	Fraction = units.Fraction
	// CubicFeetPerMinute is fan throughput.
	CubicFeetPerMinute = units.CubicFeetPerMinute
)

// Thermal model types (Figure 1 and Table 1 of the paper).
type (
	// Machine is a single server's thermal model.
	Machine = model.Machine
	// Component is a hardware part with thermal mass and a power model.
	Component = model.Component
	// AirNode is an air region inside a machine.
	AirNode = model.AirNode
	// HeatEdge is an undirected heat-flow connection.
	HeatEdge = model.HeatEdge
	// AirEdge is a directed air-flow connection.
	AirEdge = model.AirEdge
	// Cluster is a machine-room model.
	Cluster = model.Cluster
	// ClusterSource is a room-level air source (an air conditioner).
	ClusterSource = model.ClusterSource
	// ClusterSink is a room-level air sink.
	ClusterSink = model.ClusterSink
	// ClusterEdge is a room-level air connection.
	ClusterEdge = model.ClusterEdge
	// UtilSource names a utilization stream (CPU, disk, network).
	UtilSource = model.UtilSource
)

// Utilization sources.
const (
	UtilNone = model.UtilNone
	UtilCPU  = model.UtilCPU
	UtilDisk = model.UtilDisk
	UtilNet  = model.UtilNet
)

// Canonical node names of the default validation server.
const (
	NodeCPU          = model.NodeCPU
	NodeCPUAir       = model.NodeCPUAir
	NodeDiskPlatters = model.NodeDiskPlatters
	NodeDiskShell    = model.NodeDiskShell
	NodeDiskAir      = model.NodeDiskAir
	NodePowerSupply  = model.NodePowerSupply
	NodeMotherboard  = model.NodeMotherboard
	NodeInlet        = model.NodeInlet
	NodeExhaust      = model.NodeExhaust
	NodeAC           = model.NodeAC
)

// DefaultServer builds the paper's Table 1 validation server.
func DefaultServer(name string) *Machine { return model.DefaultServer(name) }

// DefaultCluster builds an n-machine room of validation servers fed by
// one air conditioner (Figure 1c).
func DefaultCluster(name string, n int) (*Cluster, error) { return model.DefaultCluster(name, n) }

// Power models (Equation 4 and alternatives).
type (
	// PowerModel maps utilization to power draw.
	PowerModel = thermo.PowerModel
	// LinearPower is the default P = Pbase + u*(Pmax-Pbase) model.
	LinearPower = thermo.Linear
	// ConstantPower draws the same power at any utilization.
	ConstantPower = thermo.Constant
	// PiecewisePower interpolates over a utilization grid.
	PiecewisePower = thermo.Piecewise
)

// NewPiecewisePower builds a piecewise-linear power model.
func NewPiecewisePower(utils []Fraction, powers []Watts) (*PiecewisePower, error) {
	return thermo.NewPiecewise(utils, powers)
}

// Solver types.
type (
	// Solver advances a thermal model through emulated time.
	Solver = solver.Solver
	// SolverConfig tunes the solver (step size, workers, region).
	SolverConfig = solver.Config
)

// NewSolver compiles a standalone machine into a solver (it is wrapped
// in a minimal room supplying its inlet temperature).
func NewSolver(m *Machine, cfg SolverConfig) (*Solver, error) { return solver.NewSingle(m, cfg) }

// NewClusterSolver compiles a full machine-room model.
func NewClusterSolver(c *Cluster, cfg SolverConfig) (*Solver, error) { return solver.New(c, cfg) }

// Model description language (modified dot, Section 2.3).
var (
	// ParseMachine parses a single-machine description.
	ParseMachine = dotlang.ParseMachine
	// ParseCluster parses a description with a cluster block.
	ParseCluster = dotlang.ParseCluster
	// PrintMachine serializes a machine back to the language.
	PrintMachine = dotlang.PrintMachine
	// PrintCluster serializes a cluster.
	PrintCluster = dotlang.PrintCluster
	// Graphviz renders a machine's graphs as plain graphviz dot.
	Graphviz = dotlang.Graphviz
)

// Networked suite: solver daemon, sensor library, monitord, fiddle.
type (
	// SolverDaemon serves sensor reads, utilization updates, and fiddle
	// operations over UDP.
	SolverDaemon = solverd.Server
	// Sensor is an open emulated temperature sensor (the paper's
	// opensensor/readsensor/closesensor API).
	Sensor = sensor.Sensor
	// SensorOptions tunes sensor transport behaviour.
	SensorOptions = sensor.Options
	// Monitord samples component utilizations and streams them to the
	// solver daemon in 128-byte UDP datagrams.
	Monitord = monitord.Daemon
	// MonitordConfig configures a monitoring daemon.
	MonitordConfig = monitord.Config
	// FiddleClient sends thermal-emergency operations to a daemon.
	FiddleClient = fiddle.Client
	// FiddleScript is a parsed fiddle script (Figure 4).
	FiddleScript = fiddle.Script
	// FiddleOp is one run-time mutation.
	FiddleOp = wire.FiddleOp
	// ProcSampler reads utilizations from /proc.
	ProcSampler = procfs.ProcSampler
	// ProcConfig configures a ProcSampler.
	ProcConfig = procfs.Config
	// SyntheticSampler is a programmable utilization source.
	SyntheticSampler = procfs.Synthetic
)

// ListenSolver binds a solver daemon on addr (e.g. "0.0.0.0:8367").
func ListenSolver(addr string, s *Solver) (*SolverDaemon, error) { return solverd.Listen(addr, s) }

// OpenSensor opens an emulated sensor against a solver daemon,
// mirroring the paper's opensensor(host+port, component) call.
func OpenSensor(addr, machine, node string) (*Sensor, error) {
	return sensor.Open(addr, machine, node)
}

// NewMonitord builds a monitoring daemon.
func NewMonitord(cfg MonitordConfig) (*Monitord, error) { return monitord.New(cfg) }

// NewProcSampler builds a /proc-backed utilization sampler.
func NewProcSampler(cfg ProcConfig) *ProcSampler { return procfs.New(cfg) }

// NewSyntheticSampler builds a programmable sampler for the given
// sources.
func NewSyntheticSampler(sources ...UtilSource) *SyntheticSampler {
	return procfs.NewSynthetic(sources...)
}

// DialFiddle connects a fiddle client to a solver daemon. Zero timeout
// and retries select defaults.
func DialFiddle(addr string, timeout time.Duration, retries int) (*FiddleClient, error) {
	return fiddle.Dial(addr, timeout, retries)
}

// ParseFiddleScript parses a Figure 4-style fiddle script.
func ParseFiddleScript(src string) (*FiddleScript, error) { return fiddle.ParseScript(src) }

// ApplyFiddle applies one fiddle operation directly to an in-process
// solver.
func ApplyFiddle(s *Solver, op *FiddleOp) error { return fiddle.Apply(s, op) }

// Offline mode: traces and replay.
type (
	// UtilTrace is an offline component-utilization trace.
	UtilTrace = trace.Trace
	// UtilRecord is one trace record.
	UtilRecord = trace.Record
	// TempLog is a recorded temperature log.
	TempLog = trace.TempLog
	// Probe names a machine/node pair to record during replay.
	Probe = trace.Probe
)

// Trace I/O and replay.
var (
	// ReadUtilTrace parses a utilization trace.
	ReadUtilTrace = trace.ReadTrace
	// ReadTempLog parses a temperature log.
	ReadTempLog = trace.ReadTempLog
	// Replay drives a solver through a trace, recording probes.
	Replay = trace.Replay
)

// Freon: cluster thermal management (Section 4).
type (
	// Freon is the base thermal-emergency manager.
	Freon = freon.Freon
	// FreonConfig tunes thresholds, gains, and periods.
	FreonConfig = freon.Config
	// FreonEC combines thermal management with energy conservation.
	FreonEC = freon.EC
	// FreonECConfig adds regions and utilization thresholds.
	FreonECConfig = freon.ECConfig
	// TraditionalPolicy is the turn-off-at-red-line baseline.
	TraditionalPolicy = freon.Traditional
	// Thresholds are a component's control temperatures.
	Thresholds = freon.Thresholds
	// ComponentSpec names a monitored component and its thresholds.
	ComponentSpec = freon.ComponentSpec
	// Balancer is the LVS-style weighted least-connections load
	// balancer substrate. It has no lock: drive it, and the web
	// cluster over it, from one goroutine.
	Balancer = lvs.Balancer
)

// NewBalancer creates an empty weighted least-connections balancer.
func NewBalancer() *Balancer { return lvs.New() }

// NewFreon builds the base Freon over a set of machines.
func NewFreon(machines []string, sensors freon.Sensors, bal freon.Balancer, power freon.Power, cfg FreonConfig) (*Freon, error) {
	return freon.New(machines, sensors, bal, power, cfg)
}

// NewFreonEC builds Freon-EC.
func NewFreonEC(machines []string, sensors freon.Sensors, utils freon.Utils, bal freon.Balancer, power freon.Power, cfg FreonECConfig) (*FreonEC, error) {
	return freon.NewEC(machines, sensors, utils, bal, power, cfg)
}

// NewTraditionalPolicy builds the red-line shutdown baseline.
func NewTraditionalPolicy(machines []string, sensors freon.Sensors, bal freon.Balancer, power freon.Power, cfg FreonConfig) (*TraditionalPolicy, error) {
	return freon.NewTraditional(machines, sensors, bal, power, cfg)
}
