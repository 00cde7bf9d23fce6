package fiddle

import (
	"strings"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/wire"
)

func newSolver(t *testing.T) *solver.Solver {
	t.Helper()
	c, err := model.DefaultCluster("room", 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := solver.New(c, solver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestApplyAllOps(t *testing.T) {
	s := newSolver(t)
	d := direct{s}
	apply := func(op *wire.FiddleOp) {
		t.Helper()
		if err := d.Apply(op); err != nil {
			t.Fatalf("%s: %v", wire.OpName(op.Op), err)
		}
	}

	apply(&wire.FiddleOp{Op: wire.OpPinInlet, Strings: []string{"machine1"}, Floats: []float64{30}})
	if ms := s.SaveState().Machines["machine1"]; !ms.InletPinned || ms.InletPin != 30 {
		t.Errorf("pin = %v %v", ms.InletPinned, ms.InletPin)
	}
	apply(&wire.FiddleOp{Op: wire.OpUnpinInlet, Strings: []string{"machine1"}})
	if s.SaveState().Machines["machine1"].InletPinned {
		t.Error("still pinned")
	}
	apply(&wire.FiddleOp{Op: wire.OpSetNodeTemp, Strings: []string{"machine1", model.NodeCPU}, Floats: []float64{55}})
	if temp, _ := s.Temperature("machine1", model.NodeCPU); temp != 55 {
		t.Errorf("node temp = %v", temp)
	}
	apply(&wire.FiddleOp{Op: wire.OpSetSourceTemp, Strings: []string{model.NodeAC}, Floats: []float64{25}})
	if temp := s.SaveState().Sources[model.NodeAC]; temp != 25 {
		t.Errorf("source temp = %v", temp)
	}
	apply(&wire.FiddleOp{Op: wire.OpSetHeatK, Strings: []string{"machine1", model.NodeCPU, model.NodeCPUAir}, Floats: []float64{2}})
	if k := s.SaveState().Machines["machine1"].HeatKs[model.NodeCPU+"|"+model.NodeCPUAir]; k != 2 {
		t.Errorf("k = %v", k)
	}
	apply(&wire.FiddleOp{Op: wire.OpSetAirFraction, Strings: []string{"machine1", model.NodeInlet, model.NodeDiskAir}, Floats: []float64{0.3}})
	apply(&wire.FiddleOp{Op: wire.OpSetFanFlow, Strings: []string{"machine1"}, Floats: []float64{50}})
	if f, _ := s.FanFlow("machine1"); f != 50 {
		t.Errorf("fan = %v", f)
	}
	apply(&wire.FiddleOp{Op: wire.OpSetPowerScale, Strings: []string{"machine1", model.NodeCPU}, Floats: []float64{0.5}})
	apply(&wire.FiddleOp{Op: wire.OpSetMachinePower, Strings: []string{"machine2"}, Floats: []float64{0}})
	if s.SaveState().Machines["machine2"].On {
		t.Error("machine2 still on")
	}
	apply(&wire.FiddleOp{Op: wire.OpSetMachinePower, Strings: []string{"machine2"}, Floats: []float64{1}})
	if !s.SaveState().Machines["machine2"].On {
		t.Error("machine2 still off")
	}
}

func TestApplyRejectsInvalid(t *testing.T) {
	s := newSolver(t)
	if err := Apply(s, &wire.FiddleOp{Op: 0x7F}); err == nil {
		t.Error("unknown op: want error")
	}
	if err := Apply(s, &wire.FiddleOp{Op: wire.OpPinInlet, Strings: []string{"ghost"}, Floats: []float64{30}}); err == nil {
		t.Error("unknown machine: want error")
	}
	if err := Apply(s, &wire.FiddleOp{Op: wire.OpPinInlet, Strings: []string{"machine1"}}); err == nil {
		t.Error("wrong arity: want error")
	}
}

func TestParseCommandForms(t *testing.T) {
	cases := []struct {
		args []string
		op   byte
	}{
		{[]string{"machine1", "temperature", "inlet", "30"}, wire.OpPinInlet},
		{[]string{"machine1", "temperature", "inlet", "auto"}, wire.OpUnpinInlet},
		{[]string{"machine1", "temperature", "cpu", "55"}, wire.OpSetNodeTemp},
		{[]string{"source", "ac", "temperature", "27"}, wire.OpSetSourceTemp},
		{[]string{"machine1", "heatk", "cpu", "cpu_air", "1.5"}, wire.OpSetHeatK},
		{[]string{"machine1", "airfraction", "inlet", "disk_air", "0.3"}, wire.OpSetAirFraction},
		{[]string{"machine1", "fanflow", "55"}, wire.OpSetFanFlow},
		{[]string{"machine1", "powerscale", "cpu", "0.5"}, wire.OpSetPowerScale},
		{[]string{"machine1", "power", "off"}, wire.OpSetMachinePower},
		{[]string{"machine1", "power", "on"}, wire.OpSetMachinePower},
	}
	for _, tc := range cases {
		op, err := ParseCommand(tc.args)
		if err != nil {
			t.Errorf("%v: %v", tc.args, err)
			continue
		}
		if op.Op != tc.op {
			t.Errorf("%v: op = %s, want %s", tc.args, wire.OpName(op.Op), wire.OpName(tc.op))
		}
		if err := wire.ValidateFiddle(op); err != nil {
			t.Errorf("%v: produced invalid op: %v", tc.args, err)
		}
	}
}

func TestParseCommandErrors(t *testing.T) {
	bad := [][]string{
		{},
		{"machine1"},
		{"machine1", "temperature"},
		{"machine1", "temperature", "inlet", "warm"},
		{"machine1", "explode", "now"},
		{"source", "ac", "27"},
		{"machine1", "power", "maybe"},
		{"machine1", "heatk", "a", "b"},
		{"machine1", "fanflow", "fast"},
	}
	for _, args := range bad {
		if _, err := ParseCommand(args); err == nil {
			t.Errorf("ParseCommand(%v): want error", args)
		}
	}
}

func TestParseScriptFigure4(t *testing.T) {
	// The exact script of Figure 4.
	script, err := ParseScript(`#!/bin/bash
sleep 100
fiddle machine1 temperature inlet 30
sleep 200
fiddle machine1 temperature inlet 21.6
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(script.Actions) != 4 {
		t.Fatalf("actions = %d, want 4", len(script.Actions))
	}
	sched := script.Schedule()
	if len(sched) != 2 {
		t.Fatalf("schedule = %d ops", len(sched))
	}
	if sched[0].At != 100*time.Second || sched[1].At != 300*time.Second {
		t.Errorf("schedule times = %v, %v; want 100s, 300s", sched[0].At, sched[1].At)
	}
	if sched[0].Op.Op != wire.OpPinInlet || sched[0].Op.Floats[0] != 30 {
		t.Errorf("first op = %+v", sched[0].Op)
	}
	if sched[1].Op.Floats[0] != 21.6 {
		t.Errorf("second op = %+v", sched[1].Op)
	}
}

func TestParseScriptErrors(t *testing.T) {
	cases := []struct {
		src, sub string
	}{
		{"sleep", "sleep takes one argument"},
		{"sleep -5", "bad sleep duration"},
		{"sleep abc", "bad sleep duration"},
		{"reboot now", "unknown command"},
		{"fiddle machine1", "too few arguments"},
	}
	for _, tc := range cases {
		_, err := ParseScript(tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.sub) {
			t.Errorf("ParseScript(%q) error = %v, want mention of %q", tc.src, err, tc.sub)
		}
	}
}

func TestScriptRunAppliesInOrder(t *testing.T) {
	s := newSolver(t)
	script, err := ParseScript(`
sleep 1
fiddle machine1 temperature inlet 30
fiddle machine1 fanflow 50
sleep 1
fiddle machine1 temperature inlet auto
`)
	if err != nil {
		t.Fatal(err)
	}
	var slept time.Duration
	if err := script.Run(direct{s}, func(d time.Duration) { slept += d }); err != nil {
		t.Fatal(err)
	}
	if slept != 2*time.Second {
		t.Errorf("slept = %v", slept)
	}
	if s.SaveState().Machines["machine1"].InletPinned {
		t.Error("inlet should be unpinned at script end")
	}
	if f, _ := s.FanFlow("machine1"); f != 50 {
		t.Errorf("fan = %v", f)
	}
}

func TestScriptRunStopsOnError(t *testing.T) {
	s := newSolver(t)
	script, err := ParseScript(`
fiddle ghost temperature inlet 30
fiddle machine1 fanflow 50
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := script.Run(direct{s}, func(time.Duration) {}); err == nil {
		t.Fatal("want error from unknown machine")
	}
	if f, _ := s.FanFlow("machine1"); f != 38.6 {
		t.Error("script continued past error")
	}
}

// direct applies operations straight to an in-process solver.
type direct struct{ s *solver.Solver }

func (d direct) Apply(op *wire.FiddleOp) error { return Apply(d.s, op) }
