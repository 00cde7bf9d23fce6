package main

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeBackfill is the black-box check of -backfill, the second
// reader of flight-recorder captures besides mercury-replay: a traced
// freon -online capture must back-fill events and spans from its one
// .mrl, and a missing directory must fail the run.
func TestSmokeBackfill(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two binaries")
	}
	bin := t.TempDir()
	for _, cmd := range []string{"freon", "mercury-dash"} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "../"+cmd).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", cmd, err, out)
		}
	}
	// 600 s reaches the t=480 s emergencies; a shorter run has spans
	// but no thermal events to back-fill.
	dir := filepath.Join(t.TempDir(), "rec")
	out, err := exec.Command(filepath.Join(bin, "freon"), "-online", "-duration", "600s",
		"-trace-spans", "-record", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("freon -online -record: %v\n%s", err, out)
	}

	// -once polls its targets after the back-fill; a stand-in control
	// plane with no events and no spans keeps the counts the capture's.
	target := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/events":
			fmt.Fprint(w, "[]")
		case "/metrics":
		default:
			http.NotFound(w, r)
		}
	}))
	defer target.Close()
	targets := "online=" + strings.TrimPrefix(target.URL, "http://")

	dash := filepath.Join(bin, "mercury-dash")
	out, err = exec.Command(dash, "-targets", targets, "-once", "-backfill", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("mercury-dash -once -backfill: %v\n%s", err, out)
	}
	var events, spans, files int
	line := out[strings.Index(string(out), "mercury-dash: backfilled"):]
	if _, err := fmt.Sscanf(string(line), "mercury-dash: backfilled %d events and %d spans from %d capture(s)", &events, &spans, &files); err != nil {
		t.Fatalf("no back-fill summary (%v):\n%s", err, out)
	}
	if events == 0 || spans == 0 || files != 1 {
		t.Errorf("back-filled %d events and %d spans from %d captures, want both non-zero from 1:\n%s", events, spans, files, out)
	}

	out, err = exec.Command(dash, "-targets", targets, "-once", "-backfill", filepath.Join(dir, "missing")).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Errorf("-backfill on a missing directory: err = %v, want exit 1\n%s", err, out)
	}
}
