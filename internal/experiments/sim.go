// Package experiments regenerates every table and figure of the
// paper's evaluation (Sections 3 and 5). Each experiment returns a
// Result holding rendered tables/charts plus machine-checkable
// metrics; the mercury-exp command prints them and the benchmark
// harness asserts their shapes.
package experiments

import (
	"fmt"
	"time"

	"github.com/darklab/mercury/internal/alert"
	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/fiddle"
	"github.com/darklab/mercury/internal/freon"
	"github.com/darklab/mercury/internal/lvs"
	"github.com/darklab/mercury/internal/online"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/stats"
	"github.com/darklab/mercury/internal/webcluster"
	"github.com/darklab/mercury/internal/workload"
)

// Result is one regenerated experiment.
type Result struct {
	Name    string
	Summary string
	Tables  []*stats.Table
	Charts  []*stats.Chart
	// Metrics holds the headline numbers (drop rates, max errors,
	// temperatures) keyed by a stable name, for tests and
	// EXPERIMENTS.md.
	Metrics map[string]float64
}

// Render formats the full experiment output.
func (r *Result) Render() string {
	out := fmt.Sprintf("== %s ==\n%s\n", r.Name, r.Summary)
	for _, t := range r.Tables {
		out += "\n" + t.Render()
	}
	for _, c := range r.Charts {
		out += "\n" + c.Render()
	}
	if len(r.Metrics) > 0 {
		mt := &stats.Table{Title: "Metrics", Headers: []string{"metric", "value"}}
		for _, k := range sortedKeys(r.Metrics) {
			mt.AddRow(k, r.Metrics[k])
		}
		out += "\n" + mt.Render()
	}
	return out
}

// Sim couples the discrete-time web cluster with the Mercury solver
// and a thermal-management policy, advancing everything in lockstep
// emulated seconds: Run is online.Loop over the in-process room, whose
// doc comment gives the second's order and its clock instants.
type Sim struct {
	Solver  *solver.Solver
	Cluster *webcluster.Cluster
	Bal     *lvs.Balancer

	// Clock is the sim's virtual time source: Run starts at its current
	// second and advances it one second per iteration, so anything hung
	// off the same clock (tickers, After waiters) fires in lockstep
	// with the simulation.
	Clock *clock.Virtual

	// Web generates the arrival trace, drawn one second per iteration;
	// nil serves no requests.
	Web *workload.WebGen
	// Fiddle is the scheduled emergency script.
	Fiddle []fiddle.TimedOp

	// Policy, when non-nil, manages the room on the loop's cadences.
	Policy freon.Policy
	// OnSecond runs after every emulated second with the tick's stats;
	// experiments sample their series here.
	OnSecond func(sec int, tick webcluster.Tick) error

	loop     online.Loop        // keeps the fiddle cursor and the alert engine across Runs
	arrivals []workload.Request // this second's, reused every iteration
}

// NewSim builds online.NewRig's rig over an in-process solver.
func NewSim(machines int, seed int64, duration time.Duration) (*Sim, error) {
	rig, err := online.NewRig(machines, seed, duration)
	if err != nil {
		return nil, err
	}
	// Workers: 0 shards stepping across all CPUs; temperatures are
	// bit-identical to the paper's serial loop for any worker count
	// (TestParallelDeterminism), so the regenerated figures are
	// unchanged.
	sol, err := solver.New(rig.Model, solver.Config{Workers: 0})
	if err != nil {
		return nil, err
	}
	return &Sim{Solver: sol, Cluster: rig.Cluster, Bal: rig.Bal, Clock: clock.NewVirtual(), Web: rig.Web}, nil
}

// Power returns admd's actuator over the sim's room and web cluster.
func (s *Sim) Power() freon.Power { return s.room().Power(s.Cluster) }

func (s *Sim) room() online.Room { return online.InProcess(s.Solver, s.Cluster.Machines()) }

// Watch hands an alert engine to the loop, which evaluates it each
// second before the policy; nil detaches it.
func (s *Sim) Watch(eng *alert.Engine) { s.loop.Alerts = eng }

// Run advances the sim for the given emulated duration.
func (s *Sim) Run(duration time.Duration) error {
	l := &s.loop
	l.Clock, l.Cluster, l.Fiddle, l.Policy, l.OnSecond = s.Clock, s.Cluster, s.Fiddle, s.Policy, s.OnSecond
	l.Room = s.room()
	l.Arrivals = s.next
	if err := l.Run(int(duration / time.Second)); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return nil
}

// next draws second sec's arrivals from Web.
func (s *Sim) next(sec int) []workload.Request {
	if s.Web == nil {
		return nil
	}
	s.arrivals = s.Web.Next(s.arrivals[:0], time.Duration(sec+1)*time.Second)
	return s.arrivals
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j-1] > keys[j]; j-- {
			keys[j-1], keys[j] = keys[j], keys[j-1]
		}
	}
	return keys
}
