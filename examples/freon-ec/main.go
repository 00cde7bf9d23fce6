// Freon-EC: energy conservation combined with thermal management
// (Figure 12). The cluster shrinks to one server in the overnight
// valley, grows ahead of the morning ramp using projected utilization,
// handles the two inlet emergencies at the peak, and shrinks again in
// the evening — all without dropping requests.
package main

import (
	"fmt"
	"log"
	"time"

	mercury "github.com/darklab/mercury"
)

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
	const duration = 2000
	machines := []string{"machine1", "machine2", "machine3", "machine4"}

	room, err := mercury.DefaultCluster("room", 4)
	if err != nil {
		log.Fatal(err)
	}
	sol, err := mercury.NewClusterSolver(room, mercury.SolverConfig{})
	if err != nil {
		log.Fatal(err)
	}
	bal := mercury.NewBalancer()
	cluster, err := mercury.NewWebCluster(bal, machines, mercury.WebClusterConfig{})
	if err != nil {
		log.Fatal(err)
	}
	web := mercury.NewWebGen(mercury.WebConfig{
		Duration: duration * time.Second,
		PeakRPS:  4 * 0.7 / mercury.WebClusterConfig{}.MeanCPUPerRequest(0.3),
		Seed:     1,
	})

	// Regions group servers by which cooling failure would hit them:
	// machines 1 and 3 share region 0, the paper's grouping.
	ec, err := mercury.NewFreonEC(machines, sol, sol, bal, power{cluster, sol},
		mercury.FreonECConfig{
			Regions: map[string]int{"machine1": 0, "machine3": 0, "machine2": 1, "machine4": 1},
		})
	if err != nil {
		log.Fatal(err)
	}

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

	fmt.Println("time    active  dropped  phases")
	for sec := 0; sec < duration; sec++ {
		now := time.Duration(sec) * time.Second
		for nextOp < len(schedule) && schedule[nextOp].At <= now {
			if err := mercury.ApplyFiddle(sol, schedule[nextOp].Op); err != nil {
				log.Fatal(err)
			}
			nextOp++
		}
		batch = web.Next(batch[:0], now+time.Second)
		cluster.TickSecond(batch)
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
		if (sec+1)%5 == 0 {
			if err := ec.TickPoll(); err != nil {
				log.Fatal(err)
			}
		}
		if (sec+1)%60 == 0 {
			if err := ec.TickPeriod(); err != nil {
				log.Fatal(err)
			}
		}
		if (sec+1)%200 == 0 {
			fmt.Printf("t=%4ds   %d      %-7d", sec+1, ec.ActiveCount(), cluster.Totals().Dropped)
			for _, m := range machines {
				fmt.Printf(" %s=%s", m, ec.Phase(m))
			}
			fmt.Println()
		}
	}

	t := cluster.Totals()
	fmt.Printf("\nfinal: %d turn-ons, %d turn-offs, %.0f kJ consumed, %.2f%% of %d requests dropped\n",
		ec.TurnOns(), ec.TurnOffs(), float64(sol.TotalEnergy())/1000, 100*t.DropRate(), t.Arrived)
	fmt.Println("compare with examples/freon-cluster, which keeps all four servers on throughout")
}
