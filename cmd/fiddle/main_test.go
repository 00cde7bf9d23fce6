package main

import (
	"os/exec"
	"path/filepath"
	"testing"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/solverd"
)

// TestSmokeApply runs the built binary against a solver daemon in the
// test: one command pins machine1's inlet, and the solver shows it.
func TestSmokeApply(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := filepath.Join(t.TempDir(), "fiddle")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	c, err := model.DefaultCluster("room", 2)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solver.New(c, solver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := solverd.Listen("127.0.0.1:0", sol)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve()

	out, err := exec.Command(bin, "-solver", srv.Addr().String(), "machine1", "temperature", "inlet", "30").CombinedOutput()
	if err != nil {
		t.Fatalf("fiddle: %v\n%s", err, out)
	}
	pinned, temp, err := sol.InletPinned("machine1")
	if err != nil || !pinned || temp != 30 {
		t.Errorf("machine1 inlet after fiddle: pinned %v at %v (err %v), want pinned at 30", pinned, temp, err)
	}
	if pinned, _, _ := sol.InletPinned("machine2"); pinned {
		t.Error("machine2 inlet pinned too")
	}
}
