// Command mercury-solver runs the Mercury solver, either on-line (a
// UDP daemon serving sensor reads, accepting monitord utilization
// updates and fiddle operations, advancing in real time) or off-line
// (replaying a utilization trace to a temperature log, Section 2.3's
// trace mode).
//
// On-line, with the built-in 4-machine Table 1 room:
//
//	mercury-solver -machines 4 -listen 127.0.0.1:8367
//
// On-line with a model description:
//
//	mercury-solver -model room.mdot -listen 127.0.0.1:8367
//
// On-line at 100x warp (emulated time decoupled from wall time; see
// docs/virtual-time.md):
//
//	mercury-solver -machines 4 -listen 127.0.0.1:8367 -warp 100
//
// Off-line:
//
//	mercury-solver -model server.mdot -trace utils.trace \
//	    -probe server/cpu -probe server/disk_platters -out temps.log
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/ctl"
	"github.com/darklab/mercury/internal/daemon"
	"github.com/darklab/mercury/internal/dotlang"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/solverd"
	"github.com/darklab/mercury/internal/stats"
	"github.com/darklab/mercury/internal/surrogate"
	"github.com/darklab/mercury/internal/trace"
)

// surrogateFitInterval paces the background refit of the on-line
// what-if surrogate. The default recording stride keeps one sample a
// minute of emulated time, so a fit every wall-clock minute tracks
// load shifts without measurable stepping cost.
const surrogateFitInterval = time.Minute

type probeList []trace.Probe

func (p *probeList) String() string {
	var parts []string
	for _, pr := range *p {
		parts = append(parts, pr.Machine+"/"+pr.Node)
	}
	return strings.Join(parts, ",")
}

func (p *probeList) Set(v string) error {
	machine, node, ok := strings.Cut(v, "/")
	if !ok || machine == "" || node == "" {
		return fmt.Errorf("probe must be machine/node, got %q", v)
	}
	*p = append(*p, trace.Probe{Machine: machine, Node: node})
	return nil
}

// runConfig carries the command's flags into run.
type runConfig struct {
	daemon.Flags
	modelPath string
	machines  int
	listen    string
	step      time.Duration
	workers   int
	tracePath string
	outPath   string
	sample    time.Duration
	loadState string
	saveState string
	warp      float64
	probes    probeList
	regions   int
	region    int
	peersSpec string

	// serving, when set, is handed the bound daemon once it steps and
	// serves; tests stop the run through it.
	serving func(*solverd.Server)
}

func main() {
	var (
		cfg        runConfig
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile here (stopped at exit or SIGINT/SIGTERM)")
		memProfile = flag.String("memprofile", "", "write a heap profile here at exit")
	)
	flag.StringVar(&cfg.modelPath, "model", "", "model description file (modified dot); empty uses -machines default servers")
	flag.IntVar(&cfg.machines, "machines", 1, "number of default Table 1 servers when -model is not given")
	flag.StringVar(&cfg.listen, "listen", "127.0.0.1:8367", "UDP address for on-line mode")
	flag.DurationVar(&cfg.step, "step", time.Second, "solver iteration step")
	flag.IntVar(&cfg.workers, "workers", 0, "stepping goroutines: 0 = auto (one per CPU, serial below ~256 machines/worker), 1 = serial, N = exactly N shards")
	flag.StringVar(&cfg.tracePath, "trace", "", "utilization trace: run off-line instead of serving UDP")
	flag.StringVar(&cfg.outPath, "out", "", "temperature log output for off-line mode (default stdout)")
	flag.DurationVar(&cfg.sample, "sample", 10*time.Second, "off-line probe sampling interval")
	flag.StringVar(&cfg.loadState, "load-state", "", "solver state checkpoint to restore before starting")
	flag.StringVar(&cfg.saveState, "save-state", "", "write a state checkpoint here on SIGINT/SIGTERM (on-line mode)")
	flag.Float64Var(&cfg.warp, "warp", 0, "on-line virtual-time warp factor: emulated seconds per wall second (0 = real time)")
	flag.Var(&cfg.probes, "probe", "machine/node to record off-line (repeatable)")
	flag.IntVar(&cfg.regions, "regions", 0, "shard the room across this many cooperating solverds (0 = whole room); every shard must get the same -model and -regions")
	flag.IntVar(&cfg.region, "region", 0, "this daemon's region index, 0..regions-1")
	flag.StringVar(&cfg.peersSpec, "peers", "", "peer solverd addresses for sharded runs, comma-separated index=host:port (e.g. \"0=10.0.0.1:8367,2=10.0.0.3:8367\")")
	cfg.Flags.Register(flag.CommandLine)
	flag.Parse()

	stopProfile := func() {}
	if *cpuProfile != "" {
		stop, err := startCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mercury-solver:", err)
			os.Exit(1)
		}
		stopProfile = stop
		defer stopProfile()
	}

	err := run(cfg)

	if *memProfile != "" {
		f, ferr := os.Create(*memProfile)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "mercury-solver:", ferr)
		} else {
			runtime.GC() // settle allocations so the heap profile reflects live data
			if werr := pprof.WriteHeapProfile(f); werr != nil {
				fmt.Fprintln(os.Stderr, "mercury-solver:", werr)
			}
			f.Close()
		}
	}
	if err != nil {
		stopProfile() // flush before os.Exit skips the deferred call
		fmt.Fprintln(os.Stderr, "mercury-solver:", err)
		if errors.Is(err, daemon.ErrUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// startCPUProfile begins profiling into path. The returned stop func
// flushes and closes the profile exactly once no matter how many
// paths invoke it — the deferred main exit and the explicit error
// path both do, and the second call must not truncate the flushed
// profile.
func startCPUProfile(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}, nil
}

func run(cfg runConfig) error {
	cluster, err := loadCluster(cfg.modelPath, cfg.machines)
	if err != nil {
		return err
	}
	// Sharding: every shard compiles the SAME full cluster with the
	// SAME deterministic partition; only the region index differs
	// between daemons, so their global machine indices agree on the
	// wire (MsgBoundaryExchange carries indices, not names).
	var regions [][]string
	if cfg.regions > 1 {
		if regions, err = solver.PartitionRegions(cluster, cfg.regions); err != nil {
			return err
		}
	}
	sol, err := solver.New(cluster, solver.Config{
		Step:        cfg.step,
		Workers:     cfg.workers,
		Regions:     regions,
		RegionIndex: cfg.region,
	})
	if err != nil {
		return err
	}
	if cfg.loadState != "" {
		f, err := os.Open(cfg.loadState)
		if err != nil {
			return err
		}
		st, err := solver.ReadState(f)
		f.Close()
		if err != nil {
			return err
		}
		if err := sol.RestoreState(st); err != nil {
			return err
		}
		fmt.Printf("mercury-solver: restored state at emulated t=%v\n", sol.Now())
	}

	if cfg.tracePath != "" {
		return runOffline(sol, cfg.tracePath, cfg.outPath, cfg.sample, cfg.probes)
	}

	var vclk *clock.Virtual
	var clk clock.Clock = clock.Real{}
	if cfg.warp > 0 {
		vclk = clock.NewVirtual()
		clk = vclk
	}
	node := "solver"
	if cfg.regions > 1 {
		node = fmt.Sprintf("solver-r%d", cfg.region)
	}
	// Everything solverd applies (utils, fiddles, boundary imports) and
	// every feed the stack holds goes to the flight recorder, when one
	// is asked for, as a file mercury-replay can re-drive
	// (docs/recordlog.md).
	st, err := daemon.Open(daemon.Config{Flags: cfg.Flags, Node: node, Clock: clk})
	if err != nil {
		return err
	}
	defer st.CloseAndReport("mercury-solver")
	opts := []solverd.Option{
		solverd.WithClock(clk),
		solverd.WithTelemetry(st.Registry, st.Events),
		solverd.WithTracer(st.Tracer),
	}
	// A nil *recordlog.Writer in the Recorder interface would be a
	// non-nil recorder that panics in Listen.
	if st.Recorder != nil {
		opts = append(opts, solverd.WithRecorder(st.Recorder))
	}
	// The surrogate fast path rides the control plane: with -ctl set on
	// an unpartitioned run, the stepping ticker records trajectory
	// samples, a background goroutine refits, and POST /whatif answers
	// steady-state queries in microseconds (kernel fallback when the
	// model declines). Sharded daemons skip it — each shard sees only
	// its region's inputs, so a local fit cannot answer room-wide
	// questions honestly.
	var surro *surrogate.Model
	if cfg.Ctl != "" && cfg.regions <= 1 {
		surro, err = surrogate.New(sol, surrogate.Config{})
		if err != nil {
			return err
		}
		surro.StartAutoFit(surrogateFitInterval)
		defer surro.Close()
		opts = append(opts, solverd.WithSurrogate(surro))
	}
	// Alerting: the engine evaluates once per solver tick from the
	// stepping ticker, over this daemon's own probes (its region, when
	// sharded) with the paper's Freon thresholds. srv is captured by
	// the health closure and assigned below, before the ticker starts.
	var srv *solverd.Server
	if st.Rules != nil {
		ms, ns := sol.Probes()
		if err := st.Watch(daemon.Watch{
			Step:   cfg.step,
			Probes: daemon.ThermalProbes(ms, ns),
			Fill:   sol.ReadAllTemps,
			Health: func() (uint64, uint64) {
				return srv.Stats().MissedTicks.Load(), srv.Stats().BoundaryMissed.Load()
			},
			Surrogate: surro,
		}); err != nil {
			return err
		}
	}
	opts = append(opts, solverd.WithAlerts(st.Alerts))
	srv, err = solverd.Listen(cfg.listen, sol, opts...)
	if err != nil {
		return err
	}
	if cfg.peersSpec != "" {
		peers, err := parsePeers(cfg.peersSpec)
		if err != nil {
			return err
		}
		if err := srv.SetPeers(peers); err != nil {
			return err
		}
	}
	shard := ""
	if cfg.regions > 1 {
		shard = fmt.Sprintf(", region %d/%d", cfg.region, cfg.regions)
	}
	if cfg.warp > 0 {
		fmt.Printf("mercury-solver: serving %d machine(s) on %s (step %v, warp %gx%s)\n",
			len(sol.Machines()), srv.Addr(), cfg.step, cfg.warp, shard)
	} else {
		fmt.Printf("mercury-solver: serving %d machine(s) on %s (step %v%s)\n",
			len(sol.Machines()), srv.Addr(), cfg.step, shard)
	}
	ctlOpts := []ctl.Option{
		ctl.WithState(func() any { return srv.State() }),
		ctl.WithFiddle(srv.ApplyFiddle),
	}
	if surro != nil {
		ctlOpts = append(ctlOpts, ctl.WithWhatIf(srv.WhatIf))
	}
	bound, err := st.Serve(ctlOpts...)
	if err != nil {
		return err
	}
	if bound != "" {
		fmt.Printf("mercury-solver: control plane on http://%s\n", bound)
	}
	// SIGINT/SIGTERM stop the daemon cleanly — checkpoint first when
	// asked — so Serve returns and the deferred close flushes the
	// capture.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-sig:
		case <-done:
			return
		}
		if cfg.saveState != "" {
			f, err := os.Create(cfg.saveState)
			if err == nil {
				if err := solver.WriteState(f, sol.SaveState()); err == nil {
					fmt.Printf("mercury-solver: state saved to %s (emulated t=%v)\n", cfg.saveState, sol.Now())
				}
				f.Close()
			}
		}
		srv.Close()
	}()
	srv.StartTicker()
	if vclk != nil {
		vclk.StartWarp(cfg.warp)
		defer vclk.StopWarp()
	}
	if cfg.serving != nil {
		cfg.serving(srv)
	}
	return srv.Serve()
}

// parsePeers parses the -peers form "index=host:port,index=host:port".
// Entries for regions with no shared boundary are fine — SetPeers only
// keeps the ones this shard actually exchanges exhausts with — so
// operators can hand every daemon the identical full roster.
func parsePeers(spec string) (map[int]string, error) {
	peers := make(map[int]string)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		idxStr, addr, ok := strings.Cut(part, "=")
		if !ok || addr == "" {
			return nil, fmt.Errorf("-peers entry %q is not index=host:port", part)
		}
		idx, err := strconv.Atoi(idxStr)
		if err != nil || idx < 0 {
			return nil, fmt.Errorf("-peers entry %q has a bad region index", part)
		}
		if _, dup := peers[idx]; dup {
			return nil, fmt.Errorf("-peers lists region %d twice", idx)
		}
		peers[idx] = addr
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("-peers %q lists no peers", spec)
	}
	return peers, nil
}

func loadCluster(modelPath string, machines int) (*model.Cluster, error) {
	if modelPath == "" {
		return model.DefaultCluster("room", machines)
	}
	return dotlang.LoadRoom(modelPath)
}

func runOffline(sol *solver.Solver, tracePath, outPath string, sample time.Duration, probes probeList) error {
	f, err := os.Open(tracePath)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.ReadTrace(f)
	if err != nil {
		return err
	}
	if len(probes) == 0 {
		// Default: record every node of every machine.
		for _, m := range sol.Machines() {
			nodes, err := sol.Nodes(m)
			if err != nil {
				return err
			}
			for _, n := range nodes {
				probes = append(probes, trace.Probe{Machine: m, Node: n})
			}
		}
	}
	temps, err := trace.Replay(sol, tr, probes, sample)
	if err != nil {
		return err
	}
	out := os.Stdout
	if outPath != "" {
		out, err = os.Create(outPath)
		if err != nil {
			return err
		}
		defer out.Close()
	}
	return writeTempLog(out, probes, temps)
}

// writeTempLog writes an off-line run's temperature log: a two-line
// header, then one "<seconds> <machine> <node> <celsius>" line per
// probe per sample, samples in time order and probes in flag order.
func writeTempLog(w io.Writer, probes probeList, temps []*stats.Series) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# mercury temperature log")
	fmt.Fprintln(bw, "# seconds machine node celsius")
	for i := 0; len(temps) > 0 && i < temps[0].Len(); i++ {
		for j, p := range probes {
			pt := temps[j].Points[i]
			fmt.Fprintf(bw, "%g %s %s %.4f\n", pt.At.Seconds(), p.Machine, p.Node, pt.Value)
		}
	}
	return bw.Flush()
}
