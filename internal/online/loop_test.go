package online

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/alert"
	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/fiddle"
	"github.com/darklab/mercury/internal/freon"
	"github.com/darklab/mercury/internal/lvs"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/webcluster"
	"github.com/darklab/mercury/internal/wire"
	"github.com/darklab/mercury/internal/workload"
)

// logPolicy is a freon.Policy that only logs its ticks.
type logPolicy struct {
	log func(what string)
	cfg freon.Config
}

func (p logPolicy) TickPoll() error               { p.log("poll"); return nil }
func (p logPolicy) TickPeriod() error             { p.log("period"); return nil }
func (p logPolicy) Config() freon.Config          { return p.cfg }
func (p logPolicy) StateSnapshot() freon.Snapshot { return freon.Snapshot{} }

// TestLoopOrder pins the emulated second's order and each room's clock
// instants (Loop's doc comment), across a Run that resumes where the
// last one stopped.
func TestLoopOrder(t *testing.T) {
	for _, room := range []struct {
		name  string
		at    [4]time.Duration
		want  string
		clock time.Duration
	}{
		{"in-process", InProcess(nil, nil).at,
			"arrivals@0s report@0s step@0s alerts@0s hook@0s " +
				"fiddle@1s arrivals@1s report@1s step@1s alerts@1s poll@1s hook@1s " +
				"arrivals@2s report@2s step@2s alerts@2s period@2s hook@2s",
			3 * time.Second},
		{"udp", udpAt,
			"arrivals@500ms report@1s step@1.25s alerts@1.25s hook@1.5s " +
				"fiddle@1.5s arrivals@1.5s report@2s step@2.25s alerts@2.25s poll@2.5s hook@2.5s " +
				"arrivals@2.5s report@3s step@3.25s alerts@3.25s period@3.5s hook@3.5s",
			3500 * time.Millisecond},
	} {
		t.Run(room.name, func(t *testing.T) {
			clk := clock.NewVirtual()
			var got []string
			log := func(what string) { got = append(got, fmt.Sprintf("%s@%v", what, clk.Elapsed())) }
			wc, err := webcluster.New(lvs.New(), []string{"machine1"}, webcluster.Config{})
			if err != nil {
				t.Fatal(err)
			}
			eng, err := alert.New(alert.Config{Health: func() (uint64, uint64, uint64) { log("alerts"); return 0, 0, 0 }})
			if err != nil {
				t.Fatal(err)
			}
			l := &Loop{
				Clock: clk,
				Room: Room{
					at:     room.at,
					apply:  func(*wire.FiddleOp) error { log("fiddle"); return nil },
					report: func(webcluster.Tick) error { log("report"); return nil },
					step:   func() error { log("step"); return nil },
				},
				Cluster:  wc,
				Arrivals: func(int) []workload.Request { log("arrivals"); return nil },
				Fiddle:   []fiddle.TimedOp{{At: time.Second, Op: &wire.FiddleOp{}}},
				Policy:   logPolicy{log: log, cfg: freon.Config{ConnPoll: 2 * time.Second, Period: 3 * time.Second}},
				Alerts:   eng,
				OnSecond: func(int, webcluster.Tick) error { log("hook"); return nil },
			}
			if err := l.Run(1); err != nil {
				t.Fatal(err)
			}
			if err := l.Run(2); err != nil {
				t.Fatal(err)
			}
			if g := strings.Join(got, " "); g != room.want {
				t.Errorf("got  %s\nwant %s", g, room.want)
			}
			if clk.Elapsed() != room.clock {
				t.Errorf("clock ends at %v, want %v", clk.Elapsed(), room.clock)
			}
			if l.polls.Load() != 1 || l.periods.Load() != 1 {
				t.Errorf("%d polls and %d periods counted, want 1 and 1", l.polls.Load(), l.periods.Load())
			}
		})
	}
}

// TestLoopDoesNotAllocate: a second of the in-process room (cluster
// tick, utilization writes, step, a nil alert engine) allocates
// nothing.
func TestLoopDoesNotAllocate(t *testing.T) {
	cm, err := model.DefaultCluster("room", 4)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solver.New(cm, solver.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wc, err := webcluster.New(lvs.New(), []string{"machine1", "machine2", "machine3", "machine4"}, webcluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	l := &Loop{
		Clock:    clock.NewVirtual(),
		Room:     InProcess(sol, wc.Machines()),
		Cluster:  wc,
		Arrivals: func(int) []workload.Request { return nil },
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := l.Run(1); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("%v allocs per emulated second, want 0", allocs)
	}
}
