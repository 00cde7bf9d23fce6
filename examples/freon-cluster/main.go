// Freon cluster: the paper's Section 5 scenario wired from the public
// API — four Table 1 servers behind a weighted least-connections
// balancer serving a diurnal web trace, with inlet emergencies hitting
// machines 1 and 3 at t=480s, managed by the base Freon policy.
//
// Everything advances in emulated time, so the 2000-second experiment
// finishes in well under a second of wall time.
package main

import (
	"fmt"
	"log"
	"time"

	mercury "github.com/darklab/mercury"
)

// power couples the emulated web server with its thermal model.
type power struct {
	cluster *mercury.WebCluster
	solver  *mercury.Solver
}

func (p power) SetPower(machine string, on bool) error {
	if err := p.cluster.SetPower(machine, on); err != nil {
		return err
	}
	return p.solver.SetMachinePower(machine, on)
}

func main() {
	const duration = 2000 // emulated seconds

	// Thermal side: a 4-machine room fed by one air conditioner.
	room, err := mercury.DefaultCluster("room", 4)
	if err != nil {
		log.Fatal(err)
	}
	sol, err := mercury.NewClusterSolver(room, mercury.SolverConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// Serving side: the emulated Apache cluster behind LVS.
	bal := mercury.NewBalancer()
	machines := []string{"machine1", "machine2", "machine3", "machine4"}
	cluster, err := mercury.NewWebCluster(bal, machines, mercury.WebClusterConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// The diurnal trace, peaking at 70% utilization across 4 servers.
	meanCPU := mercury.WebClusterConfig{}.MeanCPUPerRequest(0.3)
	web := mercury.NewWebGen(mercury.WebConfig{
		Duration: duration * time.Second,
		PeakRPS:  4 * 0.7 / meanCPU,
		Seed:     1,
	})

	// Freon: tempds watch the solver's temperatures; admd drives the
	// balancer; red-lined servers would be powered off through the
	// adapter (the base policy avoids ever needing to).
	fr, err := mercury.NewFreon(machines, sol, bal, power{cluster, sol}, mercury.FreonConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// The thermal emergencies, exactly as the paper injects them.
	script, err := mercury.ParseFiddleScript(`sleep 480
fiddle machine1 temperature inlet 38.6
fiddle machine3 temperature inlet 35.6
`)
	if err != nil {
		log.Fatal(err)
	}
	schedule := script.Schedule()
	nextOp := 0

	var batch []mercury.Request
	for sec := 0; sec < duration; sec++ {
		now := time.Duration(sec) * time.Second
		for nextOp < len(schedule) && schedule[nextOp].At <= now {
			if err := mercury.ApplyFiddle(sol, schedule[nextOp].Op); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("t=%4ds fiddle applied\n", sec)
			nextOp++
		}

		// This second's arrivals through the balancer.
		batch = web.Next(batch[:0], now+time.Second)
		cluster.TickSecond(batch)

		// Utilizations feed the thermal model (monitord's role).
		for _, m := range machines {
			utils, err := cluster.Utilizations(m)
			if err != nil {
				log.Fatal(err)
			}
			for src, u := range utils {
				if err := sol.SetUtilization(m, src, u); err != nil {
					log.Fatal(err)
				}
			}
		}
		sol.Step()

		// Freon's daemons at their paper periods.
		if (sec+1)%5 == 0 {
			if err := fr.TickPoll(); err != nil {
				log.Fatal(err)
			}
		}
		if (sec+1)%60 == 0 {
			if err := fr.TickPeriod(); err != nil {
				log.Fatal(err)
			}
		}
		if (sec+1)%200 == 0 {
			c1, _ := sol.Temperature("machine1", mercury.NodeCPU)
			c3, _ := sol.Temperature("machine3", mercury.NodeCPU)
			w1, _ := bal.Weight("machine1")
			fmt.Printf("t=%4ds machine1: %v (weight %.2f)  machine3: %v  dropped=%d\n",
				sec+1, c1, w1, c3, cluster.Totals().Dropped)
		}
	}

	t := cluster.Totals()
	fmt.Printf("\nserved %d of %d requests (%.2f%% dropped) with %d emergency adjustments; no server was shut down\n",
		t.Completed, t.Arrived, 100*t.DropRate(),
		fr.Admd().Adjustments("machine1")+fr.Admd().Adjustments("machine3"))
}
