// Command mercury-replay re-drives a recorded run (see
// docs/recordlog.md) through a fresh solver on the virtual clock at
// warp speed and verifies the result bit for bit: every recorded
// temperature row and every recorded fiddle event must come out
// identical. A capture from mercury-solver -record or freon -online
// -record turns into a deterministic regression check:
//
//	mercury-replay -log run/online.mrl
//	mercury-replay -log run/                 # single .mrl in a directory
//	mercury-replay -log run/solver.mrl -model room.mdot
//
// Exit status is 0 when the replay is bit-identical, 1 on divergence,
// on error, or when the capture holds nothing to compare. -verify-only decodes and summarizes the file without
// stepping a solver (useful for triaging a truncated or corrupt
// capture).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/darklab/mercury/internal/dotlang"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/recordlog"
)

func main() {
	var (
		logPath    = flag.String("log", "", "flight-recorder file, or a directory holding exactly one .mrl (required)")
		modelPath  = flag.String("model", "", "model description file (modified dot); empty rebuilds the default Table 1 room")
		machines   = flag.Int("machines", 0, "default-room size when -model is not given (0 = from the recorded metadata)")
		workers    = flag.Int("workers", 0, "solver stepping goroutines (0 = auto)")
		maxReport  = flag.Int("max-mismatches", 20, "mismatch diagnostics to retain")
		verifyOnly = flag.Bool("verify-only", false, "decode and summarize the capture without replaying it")
	)
	flag.Parse()
	if *logPath == "" {
		fmt.Fprintln(os.Stderr, "mercury-replay: -log is required")
		os.Exit(2)
	}
	if err := run(*logPath, *modelPath, *machines, *workers, *maxReport, *verifyOnly); err != nil {
		fmt.Fprintln(os.Stderr, "mercury-replay:", err)
		os.Exit(1)
	}
}

// resolveLog turns -log into one file: either the path itself or the
// sole .mrl inside the named directory. Rotation segments
// (base.1.mrl, …) are not separate captures — ReadLog stitches them
// back through their base file — so the directory scan skips them.
func resolveLog(path string) (string, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	if !fi.IsDir() {
		return path, nil
	}
	matches, err := filepath.Glob(filepath.Join(path, "*.mrl"))
	if err != nil {
		return "", err
	}
	bases := matches[:0]
	for _, m := range matches {
		if !recordlog.IsSegment(m) {
			bases = append(bases, m)
		}
	}
	switch len(bases) {
	case 0:
		return "", fmt.Errorf("no .mrl files in %s", path)
	case 1:
		return bases[0], nil
	}
	return "", fmt.Errorf("%d .mrl files in %s; name one explicitly: %v", len(bases), path, bases)
}

func run(logPath, modelPath string, machines, workers, maxReport int, verifyOnly bool) error {
	file, err := resolveLog(logPath)
	if err != nil {
		return err
	}
	log, err := recordlog.ReadLog(file)
	if err != nil {
		return err
	}
	clockKind := "real"
	if log.Header.Virtual() {
		clockKind = "virtual"
	}
	fmt.Printf("%s: v%d node=%s clock=%s step=%v machines=%d\n",
		file, log.Header.Version, log.Header.Node, clockKind, log.Step, log.Machines)
	fmt.Printf("decoded: %d events, %d spans, %d alert transitions, %d temp rows, %d inputs, %d boundary chunks (%d unknown records skipped)\n",
		len(log.Events), len(log.Spans), len(log.Alerts), len(log.TempRows), len(log.Inputs), len(log.Boundary), log.Skipped)
	if log.Truncated {
		fmt.Println("note: truncated tail (writer was killed or is still live); replaying what decoded")
	}
	if verifyOnly {
		return nil
	}

	cm, err := loadCluster(modelPath, machines, log.Machines)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := recordlog.Replay(log, cm, recordlog.ReplayConfig{Workers: workers, MaxMismatches: maxReport})
	if err != nil {
		return err
	}
	wall := time.Since(start)
	emulated := time.Duration(res.Steps) * log.Step
	fmt.Printf("replayed %d steps (%v emulated) in %v (%.0fx warp): %d utils, %d fiddles applied\n",
		res.Steps, emulated, wall.Round(time.Millisecond), emulated.Seconds()/wall.Seconds(),
		res.UtilsApplied, res.FiddlesApplied)
	fmt.Printf("compared: %d/%d temp rows, %d/%d events bit-identical\n",
		res.RowsMatched, res.RowsCompared, res.EventsMatched, res.EventsCompared)
	if !res.Identical() {
		fmt.Printf("REPLAY DIVERGED: %d mismatch(es)\n", res.MismatchCount())
		for _, m := range res.Mismatches {
			fmt.Println("  " + m)
		}
		return fmt.Errorf("replay diverged from the recording")
	}
	if res.RowsCompared == 0 && res.EventsCompared == 0 {
		return fmt.Errorf("capture holds no temperature rows or events to verify")
	}
	fmt.Println("replay bit-identical to the recording")
	return nil
}

// loadCluster rebuilds the model the capture was made against: an
// explicit -model file, loaded as mercury-solver loads it, or the
// default Table 1 room at -machines (the recorded machine count when
// -machines is 0).
func loadCluster(modelPath string, machines, recorded int) (*model.Cluster, error) {
	if modelPath != "" {
		return dotlang.LoadRoom(modelPath)
	}
	if machines == 0 {
		machines = recorded
	}
	if machines == 0 {
		return nil, fmt.Errorf("capture carries no machine count; pass -machines or -model")
	}
	return model.DefaultCluster("room", machines)
}
