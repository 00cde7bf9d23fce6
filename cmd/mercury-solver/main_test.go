package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/daemon"
	"github.com/darklab/mercury/internal/dotlang"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/recordlog"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/solverd"
	"github.com/darklab/mercury/internal/trace"
)

func TestProbeListFlag(t *testing.T) {
	var p probeList
	if err := p.Set("machine1/cpu"); err != nil {
		t.Fatal(err)
	}
	if err := p.Set("machine2/disk_platters"); err != nil {
		t.Fatal(err)
	}
	if got := p.String(); got != "machine1/cpu,machine2/disk_platters" {
		t.Errorf("String = %q", got)
	}
	for _, bad := range []string{"", "machine1", "/cpu", "machine1/"} {
		if err := p.Set(bad); err == nil {
			t.Errorf("Set(%q): want error", bad)
		}
	}
}

func TestLoadClusterDefaults(t *testing.T) {
	c, err := loadCluster("", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Machines) != 3 {
		t.Errorf("machines = %d", len(c.Machines))
	}
}

func TestLoadClusterFromSingleMachineFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "server.mdot")
	src := dotlang.PrintMachine(model.DefaultServer("box"))
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := loadCluster(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Machines) != 1 || c.Machines[0].Name != "box" {
		t.Errorf("cluster = %+v", c.Machines)
	}
	// The wrapper room must compile.
	if _, err := solver.New(c, solver.Config{}); err != nil {
		t.Errorf("wrapped cluster does not compile: %v", err)
	}
}

func TestLoadClusterFromClusterFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "room.mdot")
	room, err := model.DefaultCluster("room", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(dotlang.PrintCluster(room)), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := loadCluster(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Machines) != 2 {
		t.Errorf("machines = %d", len(c.Machines))
	}
}

func TestLoadClusterErrors(t *testing.T) {
	if _, err := loadCluster("/does/not/exist.mdot", 0); err == nil {
		t.Error("missing file: want error")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.mdot")
	os.WriteFile(bad, []byte("machine m {"), 0o644)
	if _, err := loadCluster(bad, 0); err == nil {
		t.Error("syntax error: want error")
	}
	// Two machines, no cluster block.
	two := filepath.Join(dir, "two.mdot")
	src := dotlang.PrintMachine(model.DefaultServer("a")) + "\nmachine b clone a;\n"
	os.WriteFile(two, []byte(src), 0o644)
	if _, err := loadCluster(two, 0); err == nil {
		t.Error("ambiguous multi-machine file: want error")
	}
}

func TestStartCPUProfileStopsOnce(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cpu.prof")
	stop, err := startCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Both the deferred path and the error-exit path call stop; the
	// second call must be a no-op rather than truncating the profile.
	stop()
	stop()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Error("profile file is empty after stop")
	}
	// Profiling must actually have stopped: a fresh start succeeds.
	stop2, err := startCPUProfile(filepath.Join(dir, "cpu2.prof"))
	if err != nil {
		t.Fatalf("second profile did not start: %v", err)
	}
	stop2()
}

func TestStartCPUProfileBadPath(t *testing.T) {
	if _, err := startCPUProfile(filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.prof")); err == nil {
		t.Error("want error for uncreatable profile path")
	}
}

func TestRunOfflineEndToEnd(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "utils.trace")
	outPath := filepath.Join(dir, "temps.log")
	if err := os.WriteFile(tracePath, []byte("0 machine1 cpu 1.0\n600 machine1 cpu 1.0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(runConfig{
		machines:  1,
		step:      time.Second,
		tracePath: tracePath,
		outPath:   outPath,
		sample:    60 * time.Second,
		probes:    probeList{{Machine: "machine1", Node: model.NodeCPU}},
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log, err := trace.ReadTempLog(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Records) != 11 {
		t.Errorf("log records = %d, want 11", len(log.Records))
	}
	if last := log.Records[len(log.Records)-1]; float64(last.Temp) < 40 {
		t.Errorf("final temp = %v, want heated", last.Temp)
	}
}

func TestRunOfflineDefaultProbes(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "utils.trace")
	os.WriteFile(tracePath, []byte("0 machine1 cpu 0.5\n60 machine1 cpu 0.5\n"), 0o644)
	outPath := filepath.Join(dir, "temps.log")
	err := run(runConfig{
		machines:  1,
		step:      time.Second,
		tracePath: tracePath,
		outPath:   outPath,
		sample:    30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	// All 14 nodes recorded at 3 samples each.
	if got := strings.Count(string(data), "machine1 "); got != 42 {
		t.Errorf("record count = %d, want 42", got)
	}
}

func TestRunRestoresState(t *testing.T) {
	// Build a state file from a warmed-up solver, then start an
	// offline run that loads it: the log must begin hot.
	dir := t.TempDir()
	// Use the same topology run() will build (-machines 1).
	room, err := loadCluster("", 1)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solver.New(room, solver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sol.SetUtilization("machine1", model.UtilCPU, 1)
	sol.Run(2 * time.Hour)
	statePath := filepath.Join(dir, "state.json")
	f, err := os.Create(statePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := solver.WriteState(f, sol.SaveState()); err != nil {
		t.Fatal(err)
	}
	f.Close()

	tracePath := filepath.Join(dir, "utils.trace")
	os.WriteFile(tracePath, []byte("0 machine1 cpu 1.0\n60 machine1 cpu 1.0\n"), 0o644)
	outPath := filepath.Join(dir, "temps.log")
	err = run(runConfig{
		machines:  1,
		step:      time.Second,
		tracePath: tracePath,
		outPath:   outPath,
		sample:    60 * time.Second,
		loadState: statePath,
		probes:    probeList{{Machine: "machine1", Node: model.NodeCPU}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	log, err := trace.ReadTempLog(out)
	if err != nil {
		t.Fatal(err)
	}
	if first := log.Records[0]; float64(first.Temp) < 60 {
		t.Errorf("restored run starts at %v, want hot", first.Temp)
	}
}

// TestRunOnlineRecordsWithoutCtl drives the on-line daemon at warp
// speed for a few hundred virtual seconds. -record alone must capture
// temperature rows (they hang off the registry, which used to exist
// only under -ctl, leaving an empty capture that replayed "identical");
// and with no recorder at all the daemon must still boot — a nil
// *recordlog.Writer handed to solverd.WithRecorder is a non-nil
// interface that panics in Listen.
func TestRunOnlineRecordsWithoutCtl(t *testing.T) {
	for _, record := range []bool{true, false} {
		dir := t.TempDir()
		cfg := runConfig{
			machines: 2,
			listen:   "127.0.0.1:0",
			step:     time.Second,
			warp:     2000,
			serving: func(srv *solverd.Server) {
				go func() {
					deadline := time.Now().Add(30 * time.Second)
					for srv.Stats().SolverSteps.Load() < 300 && time.Now().Before(deadline) {
						time.Sleep(time.Millisecond)
					}
					srv.Close()
				}()
			},
		}
		if record {
			cfg.Flags = daemon.Flags{Record: dir}
		}
		if err := run(cfg); err != nil {
			t.Fatalf("record=%v: %v", record, err)
		}
		if !record {
			continue
		}
		log, err := recordlog.ReadLog(filepath.Join(dir, "solver.mrl"))
		if err != nil {
			t.Fatal(err)
		}
		if log.Step != time.Second || log.Machines != 2 {
			t.Errorf("capture metadata: step %v, %d machines", log.Step, log.Machines)
		}
		if len(log.TempRows) < 300/10 {
			t.Errorf("captured %d temperature rows over 300 steps, want one per 10 steps", len(log.TempRows))
		}
	}
}

// TestSmokePprofRequiresCtl runs the built binary: -pprof has nowhere
// to be served without -ctl, which is a usage error (exit 2).
func TestSmokePprofRequiresCtl(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := filepath.Join(t.TempDir(), "mercury-solver")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-listen", "127.0.0.1:0", "-pprof").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "-pprof requires -ctl") {
		t.Errorf("mercury-solver -pprof: err = %v, want exit 2 naming -ctl\n%s", err, out)
	}
}
