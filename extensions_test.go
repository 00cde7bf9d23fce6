package mercury_test

import (
	"bytes"
	"testing"
	"time"

	mercury "github.com/darklab/mercury"
)

func TestFacadeCMP(t *testing.T) {
	m, err := mercury.CMPServer("box", 4)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := mercury.NewSolver(m, mercury.SolverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.SetUtilization("box", mercury.CoreUtil(1), 1); err != nil {
		t.Fatal(err)
	}
	sol.Run(time.Hour)
	hot, err := sol.Temperature("box", mercury.CoreNode(1))
	if err != nil {
		t.Fatal(err)
	}
	chip, err := sol.Temperature("box", mercury.NodeChip)
	if err != nil {
		t.Fatal(err)
	}
	if hot <= chip {
		t.Errorf("loaded core %v should exceed spreader %v", hot, chip)
	}
}

func TestFacadeFanController(t *testing.T) {
	sol, err := mercury.NewSolver(mercury.DefaultServer("m1"), mercury.SolverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := mercury.NewFanController("m1", sol, sol, mercury.DefaultFanConfig())
	if err != nil {
		t.Fatal(err)
	}
	sol.SetUtilization("m1", mercury.UtilCPU, 1)
	for i := 0; i < 3600; i++ {
		sol.Step()
		if i%10 == 0 {
			if err := fc.Tick(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if fc.Changes() == 0 {
		t.Error("fan never changed speed under full load")
	}
	flow, err := sol.FanFlow("m1")
	if err != nil {
		t.Fatal(err)
	}
	if flow <= 38.6 {
		t.Errorf("fan flow = %v, want raised above nominal", flow)
	}
}

func TestFacadePerfCounterSampler(t *testing.T) {
	pm, err := mercury.NewPerfCounterModel(
		mercury.EventCosts{"uops": 10e-9},
		7,
		mercury.LinearPower{PBase: 7, PMax: 31},
	)
	if err != nil {
		t.Fatal(err)
	}
	src := mercury.NewSyntheticCounters("uops")
	sampler, err := mercury.NewPerfCounterSampler(src, pm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sampler.Sample(); err != nil {
		t.Fatal(err)
	}
	src.Add("uops", 1<<30)
	got, err := sampler.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Source != mercury.UtilCPU || got[0].Util <= 0 {
		t.Errorf("counter-derived sample = %+v, want one positive cpu entry", got)
	}
}

func TestFacadeStateCheckpoint(t *testing.T) {
	sol, err := mercury.NewSolver(mercury.DefaultServer("m1"), mercury.SolverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sol.SetUtilization("m1", mercury.UtilCPU, 0.6)
	sol.Run(10 * time.Minute)
	var buf bytes.Buffer
	if err := mercury.WriteSolverState(&buf, sol.SaveState()); err != nil {
		t.Fatal(err)
	}
	st, err := mercury.ReadSolverState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := mercury.NewSolver(mercury.DefaultServer("m1"), mercury.SolverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	a, _ := sol.Temperature("m1", mercury.NodeCPU)
	b, _ := fresh.Temperature("m1", mercury.NodeCPU)
	if a != b {
		t.Errorf("restored temp %v != original %v", b, a)
	}
}

func TestFacadeTwoStagePolicy(t *testing.T) {
	room, err := mercury.DefaultCluster("room", 2)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := mercury.NewClusterSolver(room, mercury.SolverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	bal := mercury.NewBalancer()
	machines := []string{"machine1", "machine2"}
	if _, err := mercury.NewWebCluster(bal, machines, mercury.WebClusterConfig{}); err != nil {
		t.Fatal(err)
	}
	fr, err := mercury.NewFreon(machines, sol, bal, nil, mercury.FreonConfig{TwoStage: true})
	if err != nil {
		t.Fatal(err)
	}
	// Drive machine1 into the (Th, RedLine) band: 70% utilization with
	// a 30C inlet settles around 68C, above Th=67 but under the 71C
	// red line, so the policy reacts with stage one rather than a
	// shutdown.
	sol.SetUtilization("machine1", mercury.UtilCPU, 0.7)
	sol.PinInlet("machine1", 30)
	sol.Run(time.Hour)
	if err := fr.TickPeriod(); err != nil {
		t.Fatal(err)
	}
	blocked, err := bal.ClassBlocked("machine1", mercury.ClassDynamic)
	if err != nil {
		t.Fatal(err)
	}
	if !blocked {
		t.Error("two-stage policy did not block the dynamic class on the hot server")
	}
}

func TestFacadeMultiTierFreon(t *testing.T) {
	// The multi-tier scenario of the paper's future work: a frontend
	// web tier and a backend application tier, each behind its own
	// balancer with its own Freon, sharing one machine room. An inlet
	// emergency hits a backend machine; the backend Freon shifts its
	// jobs; nothing is dropped end to end.
	frontMachines := []string{"machine1", "machine2"}
	backMachines := []string{"machine3", "machine4", "machine5"}
	room, err := mercury.DefaultCluster("room", 5)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := mercury.NewClusterSolver(room, mercury.SolverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	frontBal, backBal := mercury.NewBalancer(), mercury.NewBalancer()
	tt, err := mercury.NewTwoTier(frontBal, backBal, frontMachines, backMachines, mercury.TwoTierConfig{})
	if err != nil {
		t.Fatal(err)
	}
	frontFreon, err := mercury.NewFreon(frontMachines, sol, frontBal, nil, mercury.FreonConfig{})
	if err != nil {
		t.Fatal(err)
	}
	backFreon, err := mercury.NewFreon(backMachines, sol, backBal, nil, mercury.FreonConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// Steady mixed load, 75% dynamic: ~75 backend jobs/s keep the three
	// backends around 50% utilization, which under the 38.6C inlet
	// emergency settles just above Th=67 — hot enough to trigger the
	// backend Freon, cool enough to stay under the 71C red line.
	reqs := mercury.GenerateWeb(mercury.WebConfig{
		Duration:     3000 * time.Second,
		PeakRPS:      100,
		ValleyShare:  0.95,
		DynamicShare: 0.75,
		Seed:         3,
	})
	idx := 0
	for sec := 0; sec < 3000; sec++ {
		if sec == 600 {
			// Emergency: machine3's inlet rises.
			if err := sol.PinInlet("machine3", 38.6); err != nil {
				t.Fatal(err)
			}
		}
		var batch []mercury.Request
		for idx < len(reqs) && reqs[idx].At < time.Duration(sec+1)*time.Second {
			batch = append(batch, reqs[idx])
			idx++
		}
		tick := tt.TickSecond(batch)
		for i, st := range tick.Front.PerServer {
			sol.SetUtilization(frontMachines[i], mercury.UtilCPU, st.CPUUtil)
			sol.SetUtilization(frontMachines[i], mercury.UtilDisk, st.DiskUtil)
		}
		for i, st := range tick.Back.PerServer {
			sol.SetUtilization(backMachines[i], mercury.UtilCPU, st.CPUUtil)
			sol.SetUtilization(backMachines[i], mercury.UtilDisk, st.DiskUtil)
		}
		sol.Step()
		if (sec+1)%5 == 0 {
			if err := frontFreon.TickPoll(); err != nil {
				t.Fatal(err)
			}
			if err := backFreon.TickPoll(); err != nil {
				t.Fatal(err)
			}
		}
		if (sec+1)%60 == 0 {
			if err := frontFreon.TickPeriod(); err != nil {
				t.Fatal(err)
			}
			if err := backFreon.TickPeriod(); err != nil {
				t.Fatal(err)
			}
		}
	}

	totals := tt.Totals()
	if totals.Dropped != 0 {
		t.Errorf("multi-tier run dropped %d of %d", totals.Dropped, totals.Arrived)
	}
	// The hot backend machine must have been restricted by the backend
	// Freon, not the frontend one.
	if backFreon.Admd().Adjustments("machine3") == 0 {
		t.Error("backend Freon never adjusted the hot machine")
	}
	for _, m := range frontMachines {
		if frontFreon.Admd().Adjustments(m) != 0 {
			t.Errorf("frontend Freon adjusted %s without an emergency", m)
		}
	}
	// And its temperature stayed under the red line.
	temp, err := sol.Temperature("machine3", mercury.NodeCPU)
	if err != nil {
		t.Fatal(err)
	}
	if temp >= 71 {
		t.Errorf("hot backend machine at %v, red line is 71", temp)
	}
}
