package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeList runs the built binary's list, which names every
// experiment without running one.
func TestSmokeList(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := filepath.Join(t.TempDir(), "mercury-exp")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "list").CombinedOutput()
	if err != nil {
		t.Fatalf("list: %v\n%s", err, out)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == "fig11" {
			return
		}
	}
	t.Errorf("list does not name fig11:\n%s", out)
}
