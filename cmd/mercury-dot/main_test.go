package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/darklab/mercury/internal/dotlang"
	"github.com/darklab/mercury/internal/model"
)

// TestSmokeCheck runs the built binary: the room it emits passes its
// own check, and a room with an air edge to an unknown node fails with
// the model validator's message.
func TestSmokeCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "mercury-dot")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	room, err := exec.Command(bin, "default-cluster", "4").Output()
	if err != nil {
		t.Fatalf("default-cluster 4: %v", err)
	}
	good := filepath.Join(dir, "room.mdot")
	if err := os.WriteFile(good, room, 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(bin, "check", good).CombinedOutput(); err != nil || !strings.HasPrefix(string(out), "ok: 4 machine(s)") {
		t.Errorf("check default-cluster 4: err = %v, output %q", err, out)
	}

	m := model.DefaultServer("server")
	m.AirEdges[0].To = "ghost_air"
	want := m.Validate()
	if want == nil {
		t.Fatal("the broken server validates")
	}
	bad := filepath.Join(dir, "bad.mdot")
	if err := os.WriteFile(bad, []byte(dotlang.PrintMachine(m)), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "check", bad).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Errorf("check bad.mdot: err = %v, want exit status 1\n%s", err, out)
	}
	if !strings.Contains(string(out), want.Error()) {
		t.Errorf("check bad.mdot: output %q does not carry %q", out, want)
	}
}
