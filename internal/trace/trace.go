// Package trace implements Mercury's offline mode (Section 2.3): the
// solver can consume component-utilization traces instead of live
// monitord updates, producing "another file containing all the usage
// and temperature information for each component in the system over
// time". Traces can be replicated across cloned machines, which is how
// Mercury "emulate[s] large cluster installations, even when the
// user's real system is much smaller".
//
// The trace format is line-oriented text: '#' comments, then
//
//	<seconds> <machine> <source> <utilization>
//
// with non-decreasing timestamps. A replay returns the probed
// temperatures as one series per probe.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/stats"
	"github.com/darklab/mercury/internal/units"
)

// Record is one utilization observation.
type Record struct {
	At      time.Duration
	Machine string
	Source  model.UtilSource
	Util    units.Fraction
}

// Trace is an ordered utilization trace.
type Trace struct {
	Records []Record
}

// ReadTrace parses a trace, validating timestamps and values.
func ReadTrace(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	lineNo := 0
	var last time.Duration
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return nil, fmt.Errorf("trace: line %d: want 4 fields, got %d", lineNo, len(fields))
		}
		// A time.Duration holds under 2^63 ns; converting a float
		// outside that range (or NaN) is implementation-defined.
		secs, err := strconv.ParseFloat(fields[0], 64)
		ns := secs * float64(time.Second)
		if err != nil || !(ns >= 0 && ns < math.MaxInt64) {
			return nil, fmt.Errorf("trace: line %d: bad time %q", lineNo, fields[0])
		}
		at := time.Duration(ns)
		if at < last {
			return nil, fmt.Errorf("trace: line %d: timestamps must be non-decreasing", lineNo)
		}
		last = at
		u, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad utilization %q", lineNo, fields[3])
		}
		f := units.Fraction(u)
		if !f.Valid() {
			return nil, fmt.Errorf("trace: line %d: utilization %v outside [0,1]", lineNo, u)
		}
		tr.Records = append(tr.Records, Record{
			At:      at,
			Machine: fields[1],
			Source:  model.UtilSource(fields[2]),
			Util:    f,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return tr, nil
}

// Write serializes the trace.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# mercury utilization trace")
	fmt.Fprintln(bw, "# seconds machine source utilization")
	for _, r := range t.Records {
		if _, err := fmt.Fprintf(bw, "%g %s %s %g\n",
			r.At.Seconds(), r.Machine, r.Source, float64(r.Util)); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	return bw.Flush()
}

// Duration returns the timestamp of the last record.
func (t *Trace) Duration() time.Duration {
	if len(t.Records) == 0 {
		return 0
	}
	return t.Records[len(t.Records)-1].At
}

// Replicate copies each machine's records onto its clones: mapping
// maps an original machine name to the names that should replay its
// utilizations (which may include the original). Records for machines
// absent from the mapping are dropped. The result is re-sorted by
// time, with ties broken by machine then source for determinism.
func (t *Trace) Replicate(mapping map[string][]string) *Trace {
	out := &Trace{}
	for _, r := range t.Records {
		for _, name := range mapping[r.Machine] {
			nr := r
			nr.Machine = name
			out.Records = append(out.Records, nr)
		}
	}
	sort.SliceStable(out.Records, func(i, j int) bool {
		a, b := out.Records[i], out.Records[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		return a.Source < b.Source
	})
	return out
}

// Probe names a machine/node pair whose temperature an offline run
// should record.
type Probe struct {
	Machine string
	Node    string
}

// Stepper is what a trace walk drives: a solver, or the reference
// server that stands in for the measured machine.
type Stepper interface {
	Step()
	Now() time.Duration
}

// Walk is the one schedule every offline replay follows, so that an
// emulated and a measured run of the same trace are sampled at the same
// instants. Times are relative to s.Now() at the start. The records at
// time 0 are applied and a sample is taken before the first step; after
// each step, the records with At at or before the time reached are
// applied, and a sample is taken at the first step at or past each
// multiple of every (default 1s). The walk stops once the trace's
// duration is reached.
func (t *Trace) Walk(s Stepper, every time.Duration, apply func(Record) error, sample func(at time.Duration) error) error {
	if every <= 0 {
		every = time.Second
	}
	idx := 0
	applyUntil := func(until time.Duration) error {
		for idx < len(t.Records) && t.Records[idx].At <= until {
			if err := apply(t.Records[idx]); err != nil {
				return err
			}
			idx++
		}
		return nil
	}
	start, end := s.Now(), t.Duration()
	if err := applyUntil(0); err != nil {
		return err
	}
	if err := sample(0); err != nil {
		return err
	}
	next := every
	for s.Now()-start < end {
		s.Step()
		now := s.Now() - start
		if err := applyUntil(now); err != nil {
			return err
		}
		if now >= next {
			if err := sample(now); err != nil {
				return err
			}
			next += every
		}
	}
	return nil
}

// Replay walks a solver through a trace and returns one series per
// probe, in probe order, of its temperatures sampled every sampleEvery
// of emulated time. A nil or empty probe list records nothing but
// still replays utilizations.
func Replay(s *solver.Solver, tr *Trace, probes []Probe, sampleEvery time.Duration) ([]*stats.Series, error) {
	series := make([]*stats.Series, len(probes))
	for i, p := range probes {
		series[i] = stats.NewSeries(p.Machine + "/" + p.Node)
	}
	err := tr.Walk(s, sampleEvery, func(r Record) error {
		if err := s.SetUtilization(r.Machine, r.Source, r.Util); err != nil {
			return fmt.Errorf("trace: replay at %v: %w", r.At, err)
		}
		return nil
	}, func(at time.Duration) error {
		for i, p := range probes {
			temp, err := s.Temperature(p.Machine, p.Node)
			if err != nil {
				return err
			}
			series[i].Add(at, float64(temp))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return series, nil
}
