// Scaleout: Mercury's offline trace replication — "replicating these
// traces allows Mercury to emulate large cluster installations, even
// when the user's real system is much smaller". One machine's recorded
// utilization trace is stamped across a 16-machine room, an
// air-conditioner failure is injected halfway through, and the room's
// thermal response is computed from the log alone: no servers, no
// sensors, no wall-clock hours.
//
// This scales one solver up; to scale *out*, the same room can be
// partitioned across cooperating mercury-solver daemons that exchange
// boundary exhausts over UDP in lockstep and stay bit-identical to the
// single solver used here (-regions/-region/-peers, or
// online.Config.Shards in-process; see the "Horizontal sharding"
// section of docs/performance.md).
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	mercury "github.com/darklab/mercury"
)

// recordedTrace is what a day of monitord output for one busy machine
// might look like, compressed: morning ramp, afternoon peak, evening
// decline, one sample per 100 emulated seconds.
const recordedTrace = `# recorded on machine1 by monitord
0    machine1 cpu 0.10
0    machine1 disk 0.05
400  machine1 cpu 0.35
400  machine1 disk 0.10
800  machine1 cpu 0.70
800  machine1 disk 0.20
1200 machine1 cpu 0.75
1200 machine1 disk 0.22
1600 machine1 cpu 0.40
1600 machine1 disk 0.12
2000 machine1 cpu 0.15
2000 machine1 disk 0.05
`

func main() {
	const machines = 16

	tr, err := mercury.ReadUtilTrace(strings.NewReader(recordedTrace))
	if err != nil {
		log.Fatal(err)
	}

	// Replicate the single recorded machine across the whole room.
	names := make([]string, machines)
	for i := range names {
		names[i] = fmt.Sprintf("machine%d", i+1)
	}
	big := tr.Replicate(map[string][]string{"machine1": names})
	fmt.Printf("replicated %d records into %d (%d machines)\n",
		len(tr.Records), len(big.Records), machines)

	room, err := mercury.DefaultCluster("room", machines)
	if err != nil {
		log.Fatal(err)
	}
	sol, err := mercury.NewClusterSolver(room, mercury.SolverConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// Halfway through, the machine room's air conditioner will degrade
	// from 21.6C to 30C supply — the kind of emergency you would never
	// induce on real hardware.
	probes := []mercury.Probe{
		{Machine: "machine1", Node: mercury.NodeCPU},
		{Machine: "machine8", Node: mercury.NodeCPU},
		{Machine: "machine16", Node: mercury.NodeCPU},
	}

	// Replay in two halves so the AC change lands at t=1000s.
	half := &mercury.UtilTrace{}
	rest := &mercury.UtilTrace{}
	for _, r := range big.Records {
		if r.At <= 1000*time.Second {
			half.Records = append(half.Records, r)
		}
		rr := r
		rr.At -= 1000 * time.Second
		if rr.At >= 0 {
			rest.Records = append(rest.Records, rr)
		}
	}
	log1, err := mercury.Replay(sol, half, probes, 100*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	if err := sol.SetSourceTemperature(mercury.NodeAC, 30); err != nil {
		log.Fatal(err)
	}
	fmt.Println("t=1000s: air conditioner degraded to 30C supply")
	log2, err := mercury.Replay(sol, rest, probes, 100*time.Second)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\ntime     machine1  machine8  machine16   (CPU, C)")
	emit := func(base time.Duration, cpu []*mercury.Series) {
		for i, p := range cpu[0].Points {
			if at := base + p.At; at%(200*time.Second) == 0 {
				fmt.Printf("%-8v %-9.1f %-9.1f %.1f\n",
					at, p.Value, cpu[1].Points[i].Value, cpu[2].Points[i].Value)
			}
		}
	}
	emit(0, log1)
	emit(1000*time.Second, log2)

	fmt.Println("\nall machines track identically (ideal non-recirculating room); note the jump after t=1000s")

	// How far does one solver instance scale? The stepping loop
	// partitions machines into topology-aware shards, each owned
	// persistently by one worker of a sense-barrier pool
	// (SolverConfig.Workers: 0 = auto, which goes serial below ~256
	// machines per worker — this 500-machine room stays serial on
	// small hosts; 1 = the paper's serial loop), and the results are
	// bit-identical either way — so the only question is wall-clock
	// speed.
	const bigRoom = 500
	stepBig := func(workers int) (time.Duration, float64) {
		room, err := mercury.DefaultCluster("big", bigRoom)
		if err != nil {
			log.Fatal(err)
		}
		sol, err := mercury.NewClusterSolver(room, mercury.SolverConfig{Workers: workers})
		if err != nil {
			log.Fatal(err)
		}
		for i := 1; i <= bigRoom; i++ {
			name := fmt.Sprintf("machine%d", i)
			if err := sol.SetUtilization(name, mercury.UtilCPU, 0.7); err != nil {
				log.Fatal(err)
			}
		}
		start := time.Now()
		sol.StepN(600) // ten emulated minutes
		elapsed := time.Since(start)
		t, err := sol.Temperature("machine250", mercury.NodeCPU)
		if err != nil {
			log.Fatal(err)
		}
		return elapsed, float64(t)
	}
	serial, tempSerial := stepBig(1)
	parallel, tempParallel := stepBig(0)
	fmt.Printf("\n%d-machine room, 600 steps: serial %v, parallel %v (%.1fx)\n",
		bigRoom, serial.Round(time.Millisecond), parallel.Round(time.Millisecond),
		float64(serial)/float64(parallel))
	fmt.Printf("machine250 CPU after both runs: %.4fC vs %.4fC (bit-identical: %v)\n",
		tempSerial, tempParallel, tempSerial == tempParallel)
}
