// Emergency: the full networked Mercury suite in one process — a
// solver daemon on loopback UDP, a monitord feeding synthetic
// utilizations, the sensor library reading emulated temperatures the
// way an application would probe real hardware, and a fiddle script
// simulating an air-conditioning failure (the paper's Figure 4
// scenario, with sleeps compressed).
package main

import (
	"fmt"
	"log"
	"time"

	mercury "github.com/darklab/mercury"
)

func main() {
	// Solver daemon on an ephemeral loopback port. Instead of the
	// daemon's real-time ticker we advance one emulated second every
	// 10ms of wall time, so the demo runs 100x faster than reality and
	// the Figure 4 script's "sleep 1.0" below covers 100 emulated
	// seconds.
	machine := mercury.DefaultServer("machine1")
	sol, err := mercury.NewSolver(machine, mercury.SolverConfig{})
	if err != nil {
		log.Fatal(err)
	}
	daemon, err := mercury.ListenSolver("127.0.0.1:0", sol)
	if err != nil {
		log.Fatal(err)
	}
	go daemon.Serve()
	defer daemon.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				sol.Step()
			case <-stop:
				return
			}
		}
	}()
	addr := daemon.Addr().String()
	fmt.Println("solver daemon on", addr)

	// monitord with a synthetic sampler standing in for /proc (the
	// monitord command, run without -synthetic-cpu, samples the real
	// machine's /proc instead).
	sampler := mercury.NewSyntheticSampler(mercury.UtilCPU, mercury.UtilDisk)
	sampler.Set(mercury.UtilCPU, 0.7)
	mon, err := mercury.NewMonitord(mercury.MonitordConfig{
		Machine:    "machine1",
		Sampler:    sampler,
		SolverAddr: addr,
		Interval:   5 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer mon.Close()
	go func() {
		for {
			if err := mon.SampleOnce(); err != nil {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// The application side: open the emulated sensors exactly like the
	// paper's opensensor()/readsensor() calls.
	cpuAir, err := mercury.OpenSensor(addr, "machine1", mercury.NodeCPUAir)
	if err != nil {
		log.Fatal(err)
	}
	defer cpuAir.Close()
	disk, err := mercury.OpenSensor(addr, "machine1", mercury.NodeDiskPlatters)
	if err != nil {
		log.Fatal(err)
	}
	defer disk.Close()

	// The Figure 4 script: ~100 emulated seconds in, the cooling
	// fails (inlet 30C); ~200 emulated seconds later it is repaired.
	script, err := mercury.ParseFiddleScript(`#!/bin/bash
sleep 1.0
fiddle machine1 temperature inlet 30
sleep 2.0
fiddle machine1 temperature inlet 21.6
`)
	if err != nil {
		log.Fatal(err)
	}
	fc, err := mercury.DialFiddle(addr, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer fc.Close()
	go func() {
		if err := script.Run(fc, time.Sleep); err != nil {
			log.Println("fiddle script:", err)
		}
	}()

	for i := 0; i < 10; i++ {
		time.Sleep(400 * time.Millisecond)
		a, err := cpuAir.Read()
		if err != nil {
			log.Fatal(err)
		}
		d, err := disk.Read()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("emulated t=%6v  cpu_air=%v  disk=%v\n", sol.Now().Round(time.Second), a, d)
	}
	fmt.Println("note the rise after the cooling failure and the recovery after repair")
}
