package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/darklab/mercury/internal/recordlog"
)

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := filepath.Join(t.TempDir(), "freon")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// -online has no pprof endpoint to offer; dropping the flag
	// silently was the bug.
	out, err := exec.Command(bin, "-online", "-ctl", "127.0.0.1:0", "-pprof").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "-pprof") || !strings.Contains(string(out), "-online") {
		t.Errorf("freon -online -pprof: err = %v, want exit 2 naming both flags\n%s", err, out)
	}

	// Nor can -online run another policy or quieten a timeline it does
	// not print: it used to exit 0 having run policy=base regardless.
	for _, args := range [][]string{{"-policy", "ec"}, {"-quiet"}} {
		out, err := exec.Command(bin, append([]string{"-online", "-duration", "10s"}, args...)...).CombinedOutput()
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), args[0]) || !strings.Contains(string(out), "-online") {
			t.Errorf("freon -online %v: err = %v, want exit 2 naming both flags\n%s", args, err, out)
		}
	}
	if out, err := exec.Command(bin, "-online", "-policy", "base", "-duration", "10s").CombinedOutput(); err != nil || !strings.Contains(string(out), "policy=base") {
		t.Errorf("freon -online -policy base: err = %v, want a base-policy run\n%s", err, out)
	}

	// The in-process rig records what the flags ask for, like every
	// other daemon: spans only with -trace-spans.
	for _, traced := range []bool{false, true} {
		dir := t.TempDir()
		args := []string{"-quiet", "-duration", "2000s", "-record", dir, "-alerts", "default"}
		if traced {
			args = append(args, "-trace-spans")
		}
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("freon %v: %v\n%s", args, err, out)
		}
		if !strings.Contains(string(out), "recorded to "+filepath.Join(dir, "freon.mrl")) {
			t.Errorf("freon %v did not report its capture:\n%s", args, out)
		}
		log, err := recordlog.ReadLog(filepath.Join(dir, "freon.mrl"))
		if err != nil {
			t.Fatal(err)
		}
		// The inlet emergencies push machine1 past its High threshold
		// well inside 2000 s: Freon events either way.
		if len(log.Events) == 0 {
			t.Errorf("freon %v captured no events", args)
		}
		if got := len(log.Spans) > 0; got != traced {
			t.Errorf("freon %v: captured %d spans, want spans only with -trace-spans", args, len(log.Spans))
		}
	}
}
