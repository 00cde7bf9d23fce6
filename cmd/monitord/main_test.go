package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeFlagConflicts runs the built binary: the flag pairs that
// cannot work must exit 2 and say which flag is missing, before any
// socket or capture file is touched.
func TestSmokeFlagConflicts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := filepath.Join(t.TempDir(), "monitord")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-machine", "m1", "-record", filepath.Join(t.TempDir(), "d")}, "-record requires -trace-spans"},
		{[]string{"-machine", "m1", "-pprof"}, "-pprof requires -ctl"},
		{[]string{"-machine", "m1", "-alerts", filepath.Join(t.TempDir(), "missing.json")}, "-alerts"},
		{nil, "-machine is required"},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("monitord %v: err = %v, want exit status 2\n%s", tc.args, err, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("monitord %v: output %q does not name %q", tc.args, out, tc.want)
		}
	}
}
