package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/dotlang"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/recordlog"
	"github.com/darklab/mercury/internal/solver"
)

// TestLoadClusterFromSingleMachineFile: mercury-solver serves a file
// holding one machine and no cluster block, so a capture of that run
// must load the same room here, not be refused.
func TestLoadClusterFromSingleMachineFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "server.mdot")
	if err := os.WriteFile(path, []byte(dotlang.PrintMachine(model.DefaultServer("box"))), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := loadCluster(path, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Machines) != 1 || c.Machines[0].Name != "box" || c.Name != "box-room" {
		t.Errorf("room %q with machines %v, want box-room holding box", c.Name, c.Machines)
	}
	if _, err := solver.New(c, solver.Config{}); err != nil {
		t.Errorf("the loaded room does not compile: %v", err)
	}
}

// TestRunRefusesEmptyCapture: a well-formed capture with no temperature
// rows and no events gives the replay nothing to compare, which is not
// the same as a verified run.
func TestRunRefusesEmptyCapture(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.mrl")
	w, err := recordlog.Create(path, "solver", clock.NewVirtual())
	if err != nil {
		t.Fatal(err)
	}
	w.RecordMeta(time.Second, 2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	err = run(path, "", 0, 1, 20, false)
	if err == nil || !strings.Contains(err.Error(), "no temperature rows or events") {
		t.Errorf("replay of an empty capture: err = %v, want a nothing-to-verify error", err)
	}
	if err := run(path, "", 0, 1, 20, true); err != nil {
		t.Errorf("-verify-only on an empty capture: %v", err)
	}
}

// TestSmokeOnlineRecordThenReplay is the black-box round trip: a
// freon -online run captured with alerts on must replay bit-identical
// through the mercury-replay binary, with rows actually compared.
func TestSmokeOnlineRecordThenReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two binaries")
	}
	bin := t.TempDir()
	for _, cmd := range []string{"freon", "mercury-replay"} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "../"+cmd).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", cmd, err, out)
		}
	}
	dir := filepath.Join(t.TempDir(), "rec")
	out, err := exec.Command(filepath.Join(bin, "freon"), "-online", "-duration", "60s",
		"-record", dir, "-alerts", "default").CombinedOutput()
	if err != nil {
		t.Fatalf("freon -online -record: %v\n%s", err, out)
	}
	if _, err := os.Stat(filepath.Join(dir, "online.mrl")); err != nil {
		t.Fatalf("no capture: %v\n%s", err, out)
	}
	out, err = exec.Command(filepath.Join(bin, "mercury-replay"), "-log", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("mercury-replay: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "replay bit-identical to the recording") || !strings.Contains(s, "compared: 6/6 temp rows") {
		t.Errorf("replay did not verify 6 temperature rows:\n%s", s)
	}
}
