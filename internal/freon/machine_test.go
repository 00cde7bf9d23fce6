package freon

import (
	"reflect"
	"testing"

	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

// batchEnv is a fakeEnv that also reads a machine's nodes in one call,
// counting both kinds of read.
type batchEnv struct {
	*fakeEnv
	single, batches int
}

func (b *batchEnv) Temperature(machine, node string) (units.Celsius, error) {
	b.single++
	return b.fakeEnv.Temperature(machine, node)
}

func (b *batchEnv) MachineTemperatures(machine string, nodes []string, temps []units.Celsius) error {
	b.batches++
	for i, n := range nodes {
		temps[i] = b.temps[machine][n]
	}
	return nil
}

// TestTempdMachineSensors: a tempd on a MachineSensors backend reads
// its machine in one call per check and reports exactly what the
// node-by-node reads report, through heating, red line and cooling.
func TestTempdMachineSensors(t *testing.T) {
	per := newFakeEnv("m1")
	batch := &batchEnv{fakeEnv: newFakeEnv("m1")}
	tdPer, err := NewTempd("m1", per, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tdBatch, err := NewTempd("m1", batch, Config{})
	if err != nil {
		t.Fatal(err)
	}
	steps := [][2]units.Celsius{{40, 35}, {68, 35}, {69.5, 66}, {72, 70}, {63, 61}, {60, 50}}
	for i, s := range steps {
		for _, e := range []*fakeEnv{per, batch.fakeEnv} {
			e.temps["m1"][model.NodeCPU], e.temps["m1"][model.NodeDiskPlatters] = s[0], s[1]
		}
		want, err := tdPer.Check()
		if err != nil {
			t.Fatal(err)
		}
		got, err := tdBatch.Check()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: batched report %+v, node-by-node %+v", i, got, want)
		}
	}
	if batch.batches != len(steps) || batch.single != 0 {
		t.Errorf("%d checks made %d batch and %d single reads, want one batch each", len(steps), batch.batches, batch.single)
	}
}

// TestTracedSensorsBatchCoolMachinesOnly: under tracing, a machine with
// an active emergency is read node by node — one sensor-read span per
// node — while a cool machine takes the backend's batch read.
func TestTracedSensorsBatchCoolMachinesOnly(t *testing.T) {
	env := &batchEnv{fakeEnv: newFakeEnv("hot", "cool")}
	tr := causal.NewTracer(64, clock.NewVirtual())
	et := newEmTracer(tr)
	et.report(Report{Machine: "hot", JustHot: true, Hot: true, HotNodes: []string{model.NodeCPU}})
	ms := wrapSensors(env, et).(MachineSensors)
	nodes := []string{model.NodeCPU, model.NodeDiskPlatters}
	temps := make([]units.Celsius, 2)

	before := len(tr.Canonical())
	if err := ms.MachineTemperatures("cool", nodes, temps); err != nil {
		t.Fatal(err)
	}
	if env.batches != 1 || env.single != 0 || len(tr.Canonical()) != before {
		t.Errorf("cool machine: %d batch, %d single reads, %d new spans; want 1, 0, 0",
			env.batches, env.single, len(tr.Canonical())-before)
	}
	if err := ms.MachineTemperatures("hot", nodes, temps); err != nil {
		t.Fatal(err)
	}
	reads := 0
	for _, s := range tr.Canonical() {
		if s.Kind == causal.KindSensorRead && s.Machine == "hot" {
			reads++
		}
	}
	if env.batches != 1 || env.single != 2 || reads != 2 {
		t.Errorf("hot machine: %d batch, %d single reads, %d sensor-read spans; want 1, 2, 2", env.batches, env.single, reads)
	}
	if temps[0] != 40 || temps[1] != 35 {
		t.Errorf("hot machine temps = %v, want [40 35]", temps)
	}
}
