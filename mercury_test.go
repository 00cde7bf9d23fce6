package mercury_test

import (
	"strings"
	"testing"
	"time"

	mercury "github.com/darklab/mercury"
	"github.com/darklab/mercury/internal/dotlang"
	"github.com/darklab/mercury/internal/wire"
	"github.com/darklab/mercury/internal/workload"
)

// The facade tests exercise the public API surface end to end the way
// a downstream user would. The facade exports only what an example
// runs; a test of a behaviour beyond that calls the internal package.

func TestFacadeQuickstart(t *testing.T) {
	machine := mercury.DefaultServer("server")
	sol, err := mercury.NewSolver(machine, mercury.SolverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.SetUtilization("server", mercury.UtilCPU, 0.7); err != nil {
		t.Fatal(err)
	}
	sol.Run(30 * time.Minute)
	temp, err := sol.Temperature("server", mercury.NodeCPU)
	if err != nil {
		t.Fatal(err)
	}
	if temp < 40 || temp > 80 {
		t.Errorf("CPU after 30min at 70%% = %v", temp)
	}
	steady, err := sol.SteadyState("server")
	if err != nil {
		t.Fatal(err)
	}
	if steady[mercury.NodeCPU] <= temp-1 {
		t.Errorf("steady %v below transient %v", steady[mercury.NodeCPU], temp)
	}
}

func TestFacadeDotRoundTrip(t *testing.T) {
	src := dotlang.PrintMachine(mercury.DefaultServer("server"))
	f, err := dotlang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Machines) != 1 || f.Machines[0].Name != "server" {
		t.Fatalf("parsed %d machines, want one named server", len(f.Machines))
	}
	if !strings.Contains(dotlang.Graphviz(f.Machines[0]), "digraph server") {
		t.Error("graphviz output wrong")
	}
}

func TestFacadeClusterAndFiddle(t *testing.T) {
	room, err := mercury.DefaultCluster("room", 2)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := mercury.NewClusterSolver(room, mercury.SolverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	script, err := mercury.ParseFiddleScript("fiddle machine1 temperature inlet 38.6\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range script.Schedule() {
		if err := mercury.ApplyFiddle(sol, op.Op); err != nil {
			t.Fatal(err)
		}
	}
	sol.Run(time.Hour)
	c1, _ := sol.Temperature("machine1", mercury.NodeCPU)
	c2, _ := sol.Temperature("machine2", mercury.NodeCPU)
	if c1 <= c2 {
		t.Errorf("emergency machine %v not hotter than %v", c1, c2)
	}
}

func TestFacadeNetworkedSuite(t *testing.T) {
	sol, err := mercury.NewSolver(mercury.DefaultServer("m1"), mercury.SolverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	daemon, err := mercury.ListenSolver("127.0.0.1:0", sol)
	if err != nil {
		t.Fatal(err)
	}
	go daemon.Serve()
	defer daemon.Close()
	addr := daemon.Addr().String()

	sampler := mercury.NewSyntheticSampler(mercury.UtilCPU, mercury.UtilDisk)
	sampler.Set(mercury.UtilCPU, 0.9)
	mon, err := mercury.NewMonitord(mercury.MonitordConfig{
		Machine: "m1", Sampler: sampler, SolverAddr: addr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	if err := mon.SampleOnce(); err != nil {
		t.Fatal(err)
	}

	sd, err := mercury.OpenSensor(addr, "m1", mercury.NodeCPU)
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	if _, err := sd.Read(); err != nil {
		t.Fatal(err)
	}

	fc, err := mercury.DialFiddle(addr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if err := fc.Apply(&wire.FiddleOp{Op: wire.OpPinInlet, Strings: []string{"m1"}, Floats: []float64{30}}); err != nil {
		t.Fatal(err)
	}
	if ms := sol.SaveState().Machines["m1"]; !ms.InletPinned || ms.InletPin != 30 {
		t.Errorf("pin = %v %v", ms.InletPinned, ms.InletPin)
	}
}

func TestFacadeWebClusterAndFreon(t *testing.T) {
	room, err := mercury.DefaultCluster("room", 2)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := mercury.NewClusterSolver(room, mercury.SolverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	bal := mercury.NewBalancer()
	machines := []string{"machine1", "machine2"}
	cluster, err := mercury.NewWebCluster(bal, machines, mercury.WebClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	reqs := workload.GenerateWeb(workload.WebConfig{Duration: 60 * time.Second, PeakRPS: 50, Seed: 1})
	if len(reqs) == 0 {
		t.Fatal("no requests")
	}
	fr, err := mercury.NewFreon(machines, sol, bal, nil, mercury.FreonConfig{})
	if err != nil {
		t.Fatal(err)
	}
	idx := 0
	for sec := 0; sec < 60; sec++ {
		var batch []mercury.Request
		for idx < len(reqs) && reqs[idx].At < time.Duration(sec+1)*time.Second {
			batch = append(batch, reqs[idx])
			idx++
		}
		cluster.TickSecond(batch)
		sol.Step()
	}
	if err := fr.TickPoll(); err != nil {
		t.Fatal(err)
	}
	if err := fr.TickPeriod(); err != nil {
		t.Fatal(err)
	}
	if cluster.Totals().Arrived == 0 {
		t.Error("nothing served")
	}
}

func TestFacadeCalibrationSurface(t *testing.T) {
	ref := mercury.NewRefServer(1)
	bench := mercury.CPUCalibrationBenchmark("server")
	if bench.Duration() != 14000*time.Second {
		t.Errorf("benchmark duration = %v", bench.Duration())
	}
	// Short replay only, for speed.
	short := mercury.CombinedBenchmark("server", 1, 300*time.Second, 50*time.Second)
	meas := ref.Replay(short, 10*time.Second)
	if meas.CPUAir.Len() == 0 || meas.Disk.Len() == 0 {
		t.Fatal("no measurements")
	}
	fitted, res, err := mercury.Calibrate(mercury.DefaultServer("server"), short,
		[]mercury.CalibrationTarget{{Node: mercury.NodeCPUAir, Measured: meas.CPUAir}},
		mercury.DefaultCPUCalibrationParams(),
		mercury.CalibrationOptions{Rounds: 1, GridPoints: 3})
	if err != nil {
		t.Fatal(err)
	}
	if fitted == nil || res.Evals == 0 {
		t.Error("calibration did nothing")
	}
}

func TestFacadeOfflineTrace(t *testing.T) {
	src := "0 m1 cpu 1.0\n120 m1 cpu 1.0\n"
	tr, err := mercury.ReadUtilTrace(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := mercury.NewSolver(mercury.DefaultServer("m1"), mercury.SolverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	temps, err := mercury.Replay(sol, tr, []mercury.Probe{{Machine: "m1", Node: mercury.NodeCPU}}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(temps) != 1 || temps[0].Len() != 5 {
		t.Fatalf("series = %d, want one of 5 samples", len(temps))
	}
	if first, last := temps[0].Points[0], temps[0].Points[4]; last.At != 120*time.Second || last.Value <= first.Value {
		t.Errorf("full load from %v to %v: %v -> %v", first.At, last.At, first.Value, last.Value)
	}
}
