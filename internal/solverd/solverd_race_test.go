package solverd

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/fiddle"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/sensor"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/units"
	"github.com/darklab/mercury/internal/wire"
)

// TestDaemonUnderParallelStepping is the end-to-end race regression
// for the sharded stepping loop: a daemon wraps a solver with the
// parallel worker pool enabled and a fast ticker, while UDP clients
// hammer sensor reads and fiddle operations and a co-located goroutine
// drives the in-process query API. Run under `go test -race` this
// covers solverd's real production interleaving: query-while-stepping
// across the pool's worker goroutines. Workers is explicit (not
// 0/auto) so the pool exists even on a single-CPU runner.
func TestDaemonUnderParallelStepping(t *testing.T) {
	c, err := model.DefaultCluster("room", 8)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solver.New(c, solver.Config{Step: time.Millisecond, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Listen("127.0.0.1:0", sol)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	srv.StartTicker()
	t.Cleanup(func() { srv.Close() })
	addr := srv.Addr().String()

	deadline := time.Now().Add(300 * time.Millisecond)
	var wg sync.WaitGroup
	hammer := func(fn func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				if err := fn(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	// UDP sensor reads against every machine.
	for m := 1; m <= 4; m++ {
		name := fmt.Sprintf("machine%d", m)
		sd, err := sensor.Open(addr, name, model.NodeCPU)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sd.Close() })
		hammer(func(i int) error {
			_, err := sd.Read()
			return err
		})
	}

	// UDP fiddle ops: pins, source temperature, power toggles.
	cl, err := fiddle.Dial(addr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	hammer(func(i int) error {
		if err := cl.Apply(&wire.FiddleOp{Op: wire.OpPinInlet, Strings: []string{"machine5"}, Floats: []float64{25 + float64(i%10)}}); err != nil {
			return err
		}
		return cl.Apply(&wire.FiddleOp{Op: wire.OpUnpinInlet, Strings: []string{"machine5"}})
	})
	hammer(func(i int) error {
		return cl.Apply(&wire.FiddleOp{Op: wire.OpSetSourceTemp, Strings: []string{model.NodeAC}, Floats: []float64{20 + float64(i%5)}})
	})
	hammer(func(i int) error {
		return cl.Apply(&wire.FiddleOp{Op: wire.OpSetMachinePower, Strings: []string{"machine6"}, Floats: []float64{float64(1 - i%2)}})
	})

	// Co-located in-process load, the solverd ticker's own pattern.
	hammer(func(i int) error {
		if err := sol.SetUtilization("machine7", model.UtilCPU, units.Fraction(float64(i%100)/100)); err != nil {
			return err
		}
		sol.Snapshot()
		sol.SaveState()
		return nil
	})

	wg.Wait()
	if sol.SaveState().Steps == 0 {
		t.Error("ticker never stepped the solver")
	}
	if srv.Stats().SensorReads.Load() == 0 || srv.Stats().FiddleOps.Load() == 0 {
		t.Errorf("daemon saw no traffic: reads=%d fiddles=%d",
			srv.Stats().SensorReads.Load(), srv.Stats().FiddleOps.Load())
	}
}
