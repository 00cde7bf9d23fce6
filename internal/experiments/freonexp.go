package experiments

import (
	"fmt"
	"time"

	"github.com/darklab/mercury/internal/fiddle"
	"github.com/darklab/mercury/internal/freon"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/stats"
	"github.com/darklab/mercury/internal/webcluster"
)

// Section 5 experiment constants.
const (
	freonSeed     = 1
	freonDuration = 2000 * time.Second
	emergencyAt   = 480 * time.Second
)

// emergencyScript reproduces the paper's Figure 4-style fiddle script:
// at 480 s, machine1's inlet rises to 38.6 C and machine3's to 35.6 C,
// lasting the rest of the experiment.
const emergencyScript = `#!/bin/bash
sleep 480
fiddle machine1 temperature inlet 38.6
fiddle machine3 temperature inlet 35.6
`

func emergencyOps() ([]fiddle.TimedOp, error) {
	script, err := fiddle.ParseScript(emergencyScript)
	if err != nil {
		return nil, err
	}
	return script.Schedule(), nil
}

// freonRun is the shared collection across the three Section 5
// experiments.
type freonRun struct {
	sim       *Sim
	temps     map[string]*stats.Series // CPU temperature per machine
	utils     map[string]*stats.Series // minute-average CPU utilization
	active    *stats.Series            // active server count (EC)
	machines  []string
	utilAccum []float64 // CPU utilization sums, in machines order
	utilTicks int
	activeFn  func() int
}

func newFreonRun() (*freonRun, error) {
	sim, err := NewSim(4, freonSeed, freonDuration)
	if err != nil {
		return nil, err
	}
	ops, err := emergencyOps()
	if err != nil {
		return nil, err
	}
	sim.Fiddle = ops
	r := &freonRun{
		sim:      sim,
		temps:    map[string]*stats.Series{},
		utils:    map[string]*stats.Series{},
		active:   stats.NewSeries("active servers"),
		machines: sim.Cluster.Machines(),
	}
	r.utilAccum = make([]float64, len(r.machines))
	for _, m := range r.machines {
		r.temps[m] = stats.NewSeries(m)
		r.utils[m] = stats.NewSeries(m)
	}
	sim.OnSecond = r.sample
	return r, nil
}

func (r *freonRun) sample(sec int, tick webcluster.Tick) error {
	at := time.Duration(sec) * time.Second
	for i, st := range tick.PerServer {
		r.utilAccum[i] += float64(st.CPUUtil)
	}
	r.utilTicks++
	if (sec+1)%10 == 0 {
		for m, s := range r.temps {
			temp, err := r.sim.Solver.Temperature(m, model.NodeCPU)
			if err != nil {
				return err
			}
			s.Add(at, float64(temp))
		}
	}
	if r.utilTicks == 60 {
		for i, m := range r.machines {
			r.utils[m].Add(at, r.utilAccum[i]/60*100)
			r.utilAccum[i] = 0
		}
		r.utilTicks = 0
	}
	if r.activeFn != nil {
		r.active.Add(at, float64(r.activeFn()))
	}
	return nil
}

func (r *freonRun) charts(title string) []*stats.Chart {
	tempSeries := make([]*stats.Series, 0, 4)
	utilSeries := make([]*stats.Series, 0, 4)
	for _, m := range r.sim.Cluster.Machines() {
		tempSeries = append(tempSeries, r.temps[m])
		utilSeries = append(utilSeries, r.utils[m])
	}
	charts := []*stats.Chart{
		{Title: title + ": CPU temperatures (C)", Series: tempSeries},
		{Title: title + ": CPU utilizations (%, 1-minute averages)", Series: utilSeries},
	}
	if r.active.Len() > 0 {
		charts = append(charts, &stats.Chart{
			Title: title + ": active server count", Series: []*stats.Series{r.active}, Height: 8,
		})
	}
	return charts
}

func (r *freonRun) commonMetrics(metrics map[string]float64) {
	totals := r.sim.Cluster.Totals()
	metrics["requests_arrived"] = float64(totals.Arrived)
	metrics["requests_dropped"] = float64(totals.Dropped)
	metrics["drop_rate"] = totals.DropRate()
	metrics["total_energy_joules"] = float64(r.sim.Solver.TotalEnergy())
	for _, m := range r.sim.Cluster.Machines() {
		metrics["max_cpu_temp_"+m] = r.temps[m].Max()
	}
}

// Fig11 regenerates Figure 11: the base Freon policy handling the
// two-machine inlet emergency with load redistribution and no dropped
// requests.
func Fig11() (*Result, error) {
	run, err := newFreonRun()
	if err != nil {
		return nil, err
	}
	sim := run.sim
	fr, err := freon.New(sim.Cluster.Machines(), sim.Solver, sim.Bal, sim.Power(), freon.Config{})
	if err != nil {
		return nil, err
	}
	sim.Policy = fr
	if err := sim.Run(freonDuration); err != nil {
		return nil, err
	}

	metrics := map[string]float64{}
	run.commonMetrics(metrics)
	for _, m := range sim.Cluster.Machines() {
		metrics["adjustments_"+m] = float64(fr.Admd().Adjustments(m))
	}
	metrics["servers_shut_down"] = float64(fr.OfflineCount())
	th := float64(freon.DefaultComponents()[0].High)
	metrics["cpu_high_threshold"] = th

	res := &Result{
		Name: "fig11",
		Summary: fmt.Sprintf(
			"Freon base policy: emergencies at %v (machine1 inlet 38.6C, machine3 35.6C). "+
				"Freon reduced the hot servers' load (%d/%d weight adjustments on machines 1/3), kept every CPU near Th=%.0fC, "+
				"shut down %d servers, and dropped %.2f%% of requests.",
			emergencyAt, fr.Admd().Adjustments("machine1"), fr.Admd().Adjustments("machine3"), th,
			fr.OfflineCount(), 100*metrics["drop_rate"]),
		Charts:  run.charts("Figure 11"),
		Metrics: metrics,
	}
	return res, nil
}

// Traditional regenerates the Section 5.1 baseline: no load shifting,
// servers shut down at the red line; the paper measures 14% of
// requests dropped.
func Traditional() (*Result, error) {
	run, err := newFreonRun()
	if err != nil {
		return nil, err
	}
	sim := run.sim
	tr, err := freon.NewTraditional(sim.Cluster.Machines(), sim.Solver, sim.Bal, sim.Power(), freon.Config{})
	if err != nil {
		return nil, err
	}
	sim.Policy = tr
	if err := sim.Run(freonDuration); err != nil {
		return nil, err
	}
	metrics := map[string]float64{}
	run.commonMetrics(metrics)
	metrics["servers_shut_down"] = float64(len(tr.OfflineMachines()))

	res := &Result{
		Name: "trad",
		Summary: fmt.Sprintf(
			"Traditional policy: servers shut down on red-line. %d servers went down (%v) and %.1f%% of requests were dropped "+
				"(the paper measured 14%%).",
			len(tr.OfflineMachines()), tr.OfflineMachines(), 100*metrics["drop_rate"]),
		Charts:  run.charts("Traditional policy"),
		Metrics: metrics,
	}
	return res, nil
}

// Fig12 regenerates Figure 12: Freon-EC conserving energy by shrinking
// the active configuration at low load while still managing the
// emergencies at the peak.
func Fig12() (*Result, error) {
	run, err := newFreonRun()
	if err != nil {
		return nil, err
	}
	sim := run.sim
	// "we grouped machines 1 and 3 in region 0 and the others in
	// region 1."
	regions := map[string]int{"machine1": 0, "machine3": 0, "machine2": 1, "machine4": 1}
	ec, err := freon.NewEC(sim.Cluster.Machines(), sim.Solver, sim.Solver, sim.Bal, sim.Power(),
		freon.ECConfig{Regions: regions})
	if err != nil {
		return nil, err
	}
	run.activeFn = ec.ActiveCount
	sim.Policy = ec
	if err := sim.Run(freonDuration); err != nil {
		return nil, err
	}
	metrics := map[string]float64{}
	run.commonMetrics(metrics)
	metrics["min_active_servers"] = run.active.Min()
	metrics["max_active_servers"] = run.active.Max()
	metrics["turn_ons"] = float64(ec.TurnOns())
	metrics["turn_offs"] = float64(ec.TurnOffs())

	res := &Result{
		Name: "fig12",
		Summary: fmt.Sprintf(
			"Freon-EC: active configuration ranged %d..%d servers (%d turn-ons, %d turn-offs), total energy %.0f kJ, "+
				"%.2f%% of requests dropped.",
			int(run.active.Min()), int(run.active.Max()), ec.TurnOns(), ec.TurnOffs(),
			metrics["total_energy_joules"]/1000, 100*metrics["drop_rate"]),
		Charts:  run.charts("Figure 12"),
		Metrics: metrics,
	}
	return res, nil
}
