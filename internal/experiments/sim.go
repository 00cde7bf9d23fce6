// Package experiments regenerates every table and figure of the
// paper's evaluation (Sections 3 and 5). Each experiment returns a
// Result holding rendered tables/charts plus machine-checkable
// metrics; the mercury-exp command prints them and the benchmark
// harness asserts their shapes.
package experiments

import (
	"fmt"
	"time"

	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/fiddle"
	"github.com/darklab/mercury/internal/lvs"
	"github.com/darklab/mercury/internal/model"
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
// emulated seconds: the cluster serves the second's arrivals, its
// utilizations feed the solver (as monitord would), the solver steps,
// and the policy's daemons run at their own periods.
type Sim struct {
	Solver  *solver.Solver
	Cluster *webcluster.Cluster
	Bal     *lvs.Balancer

	// Clock is the sim's virtual time source, shared with the online
	// harness's runtime: Run reads the current emulated instant from
	// it and advances it one second per iteration, so anything hung
	// off the same clock (tickers, After waiters) fires in lockstep
	// with the simulation. NewSim populates it; zero-value Sims get a
	// fresh clock on first Run.
	Clock *clock.Virtual

	// Web generates the arrival trace, drawn one second per iteration;
	// nil serves no requests.
	Web *workload.WebGen
	// Fiddle is the scheduled emergency script.
	Fiddle []fiddle.TimedOp

	// OnPoll runs every PollEvery (default 5s): Freon's admd sampling.
	OnPoll func() error
	// OnPeriod runs every PeriodEvery (default 60s): tempd/admd cycle.
	OnPeriod func() error
	// OnSecond runs after every emulated second with the tick's stats;
	// experiments sample their series here.
	OnSecond func(sec int, tick webcluster.Tick) error

	PollEvery   time.Duration
	PeriodEvery time.Duration

	arrivals  []workload.Request // this second's, reused every iteration
	fiddleIdx int
}

// NewSim builds the standard 4-machine rig: the Table 1 cluster, a
// fresh balancer-backed web cluster, and the Section 5 diurnal trace.
func NewSim(machines int, seed int64, duration time.Duration) (*Sim, error) {
	c, err := model.DefaultCluster("room", machines)
	if err != nil {
		return nil, err
	}
	// Workers: 0 shards stepping across all CPUs; temperatures are
	// bit-identical to the paper's serial loop for any worker count
	// (TestParallelDeterminism), so the regenerated figures are
	// unchanged.
	sol, err := solver.New(c, solver.Config{Workers: 0})
	if err != nil {
		return nil, err
	}
	bal := lvs.New()
	names := make([]string, machines)
	for i := range names {
		names[i] = fmt.Sprintf("machine%d", i+1)
	}
	wc, err := webcluster.New(bal, names, webcluster.Config{})
	if err != nil {
		return nil, err
	}
	// "The load peak is set at 70% utilization with 4 servers, leaving
	// spare capacity to handle unexpected load increases or a server
	// failure."
	peak := float64(machines) * 0.7 / webcluster.Config{}.MeanCPUPerRequest(0.3)
	return &Sim{
		Solver:  sol,
		Cluster: wc,
		Bal:     bal,
		Clock:   clock.NewVirtual(),
		Web: workload.NewWebGen(workload.WebConfig{
			Duration: duration,
			PeakRPS:  peak,
			Seed:     seed,
		}),
		PollEvery:   5 * time.Second,
		PeriodEvery: time.Minute,
	}, nil
}

// Power returns a power actuator that switches both the emulated web
// server and its thermal model.
func (s *Sim) Power() PowerAdapter { return PowerAdapter{sim: s} }

// PowerAdapter implements freon.Power over the sim.
type PowerAdapter struct{ sim *Sim }

// SetPower turns the machine on/off in the web cluster and the solver.
func (p PowerAdapter) SetPower(machine string, on bool) error {
	if err := p.sim.Cluster.SetPower(machine, on); err != nil {
		return err
	}
	return p.sim.Solver.SetMachinePower(machine, on)
}

// Run advances the sim for the given emulated duration. Emulated time
// lives on s.Clock: each iteration handles the second starting at the
// clock's current instant and then advances it by one second, firing
// any tickers or timers other components have registered on the same
// clock.
func (s *Sim) Run(duration time.Duration) error {
	if s.Clock == nil {
		s.Clock = clock.NewVirtual()
	}
	// A hook's cadence must be a positive whole number of one-second
	// ticks; anything else would run at the wrong rate, or never.
	if s.OnPoll != nil && (s.PollEvery <= 0 || s.PollEvery%time.Second != 0) {
		return fmt.Errorf("experiments: PollEvery = %v is not a positive whole multiple of the 1s tick", s.PollEvery)
	}
	if s.OnPeriod != nil && (s.PeriodEvery <= 0 || s.PeriodEvery%time.Second != 0) {
		return fmt.Errorf("experiments: PeriodEvery = %v is not a positive whole multiple of the 1s tick", s.PeriodEvery)
	}
	secs := int(duration / time.Second)
	pollEvery := int(s.PollEvery / time.Second)
	periodEvery := int(s.PeriodEvery / time.Second)
	base := int(s.Clock.Elapsed() / time.Second)
	machines := s.Cluster.Machines()
	for i := 0; i < secs; i++ {
		sec := base + i
		now := s.Clock.Elapsed()

		for s.fiddleIdx < len(s.Fiddle) && s.Fiddle[s.fiddleIdx].At <= now {
			if err := fiddle.Apply(s.Solver, s.Fiddle[s.fiddleIdx].Op); err != nil {
				return fmt.Errorf("experiments: fiddle at %v: %w", now, err)
			}
			s.fiddleIdx++
		}

		if s.Web != nil {
			s.arrivals = s.Web.Next(s.arrivals[:0], now+time.Second)
		}
		tick := s.Cluster.TickSecond(s.arrivals)

		// Feed the tick's utilizations to the thermal model, the role
		// monitord plays on a live system.
		for _, m := range machines {
			st := tick.PerServer[m]
			if err := s.Solver.SetUtilization(m, model.UtilCPU, st.CPUUtil); err != nil {
				return err
			}
			if err := s.Solver.SetUtilization(m, model.UtilDisk, st.DiskUtil); err != nil {
				return err
			}
		}
		s.Solver.Step()

		if s.OnPoll != nil && (sec+1)%pollEvery == 0 {
			if err := s.OnPoll(); err != nil {
				return err
			}
		}
		if s.OnPeriod != nil && (sec+1)%periodEvery == 0 {
			if err := s.OnPeriod(); err != nil {
				return err
			}
		}
		if s.OnSecond != nil {
			if err := s.OnSecond(sec, tick); err != nil {
				return err
			}
		}
		s.Clock.Advance(time.Second)
	}
	return nil
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
