package mercury

import (
	"github.com/darklab/mercury/internal/fanctl"
	"github.com/darklab/mercury/internal/model"
)

// Extensions beyond the paper's core systems, implementing the
// future-work items its Section 7 and Section 4.3 sketch: variable-
// speed fan control and two-level chip-multiprocessor models.

// Variable-speed fan control (Section 7: "we are currently extending
// our models to consider ... variable-speed fans").
type (
	// FanController steps a machine's fan speed by temperature with
	// hysteresis, like server firmware.
	FanController = fanctl.Controller
	// FanConfig is the level table of a FanController.
	FanConfig = fanctl.Config
	// FanLevel maps a temperature threshold to a fan speed.
	FanLevel = fanctl.Level
)

// NewFanController builds a fan controller over any temperature source
// and fan actuator (a *Solver satisfies both).
func NewFanController(machine string, sensors fanctl.Sensors, actuator fanctl.Actuator, cfg FanConfig) (*FanController, error) {
	return fanctl.New(machine, sensors, actuator, cfg)
}

// Chip-multiprocessor modeling (Section 7: per-core and whole-chip
// levels).

// NodeChip is the shared die/heat-spreader node of a CMP server.
const NodeChip = model.NodeChip

// CMPServer builds the validation server with its CPU replaced by a
// two-level chip-multiprocessor model: per-core dies (driven by
// utilization streams CoreUtil(0..n-1)) on a shared spreader.
func CMPServer(name string, cores int) (*Machine, error) { return model.CMPServer(name, cores) }

// CoreNode returns the node name of core i of a CMP server.
func CoreNode(i int) string { return model.CoreNode(i) }

// CoreUtil returns the utilization source that drives core i.
func CoreUtil(i int) UtilSource { return model.CoreUtil(i) }

// Content classes for content-aware distribution (the two-stage policy
// of Section 4.3; enable with FreonConfig.TwoStage).
const (
	ClassDynamic = "dynamic"
	ClassStatic  = "static"
)
