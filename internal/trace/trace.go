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
// with non-decreasing timestamps. Temperature logs use the same shape
// with a node name and a Celsius value.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/solver"
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
		secs, err := strconv.ParseFloat(fields[0], 64)
		if err != nil || secs < 0 {
			return nil, fmt.Errorf("trace: line %d: bad time %q", lineNo, fields[0])
		}
		at := time.Duration(secs * float64(time.Second))
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

// TempRecord is one emulated temperature observation.
type TempRecord struct {
	At      time.Duration
	Machine string
	Node    string
	Temp    units.Celsius
}

// TempLog is an ordered temperature log, the offline run's output.
type TempLog struct {
	Records []TempRecord
}

// Write serializes the log.
func (l *TempLog) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# mercury temperature log")
	fmt.Fprintln(bw, "# seconds machine node celsius")
	for _, r := range l.Records {
		if _, err := fmt.Fprintf(bw, "%g %s %s %.4f\n",
			r.At.Seconds(), r.Machine, r.Node, float64(r.Temp)); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	return bw.Flush()
}

// ReadTempLog parses a temperature log.
func ReadTempLog(r io.Reader) (*TempLog, error) {
	l := &TempLog{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	lineNo := 0
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
		secs, err := strconv.ParseFloat(fields[0], 64)
		if err != nil || secs < 0 {
			return nil, fmt.Errorf("trace: line %d: bad time %q", lineNo, fields[0])
		}
		temp, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad temperature %q", lineNo, fields[3])
		}
		c := units.Celsius(temp)
		if !c.Valid() {
			return nil, fmt.Errorf("trace: line %d: invalid temperature %v", lineNo, temp)
		}
		l.Records = append(l.Records, TempRecord{
			At:      time.Duration(secs * float64(time.Second)),
			Machine: fields[1],
			Node:    fields[2],
			Temp:    c,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return l, nil
}

// Probe names a machine/node pair whose temperature an offline run
// should record.
type Probe struct {
	Machine string
	Node    string
}

// Replay drives a solver through a trace: records are applied at their
// timestamps as the solver steps, and every sampleEvery of emulated
// time the probes' temperatures are appended to the returned log. The
// run extends to the trace's duration (plus one sample). A nil or
// empty probe list records nothing but still replays utilizations.
func Replay(s *solver.Solver, tr *Trace, probes []Probe, sampleEvery time.Duration) (*TempLog, error) {
	if sampleEvery <= 0 {
		sampleEvery = time.Second
	}
	log := &TempLog{}
	sample := func(at time.Duration) error {
		for _, p := range probes {
			temp, err := s.Temperature(p.Machine, p.Node)
			if err != nil {
				return err
			}
			log.Records = append(log.Records, TempRecord{At: at, Machine: p.Machine, Node: p.Node, Temp: temp})
		}
		return nil
	}

	idx := 0
	apply := func(until time.Duration) error {
		for idx < len(tr.Records) && tr.Records[idx].At <= until {
			r := tr.Records[idx]
			if err := s.SetUtilization(r.Machine, r.Source, r.Util); err != nil {
				return fmt.Errorf("trace: replay at %v: %w", r.At, err)
			}
			idx++
		}
		return nil
	}

	start := s.Now()
	end := tr.Duration()
	nextSample := time.Duration(0)
	if err := apply(0); err != nil {
		return nil, err
	}
	if err := sample(0); err != nil {
		return nil, err
	}
	nextSample += sampleEvery
	for {
		now := s.Now() - start
		if now >= end {
			break
		}
		s.Step()
		now = s.Now() - start
		if err := apply(now); err != nil {
			return nil, err
		}
		if now >= nextSample {
			if err := sample(now); err != nil {
				return nil, err
			}
			nextSample += sampleEvery
		}
	}
	return log, nil
}
