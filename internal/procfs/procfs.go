// Package procfs computes component utilizations from the Linux /proc
// filesystem, the way monitord does in the paper ("their utilization
// information is computed from /proc"). CPU utilization comes from
// /proc/stat, disk utilization from the io-ticks column of
// /proc/diskstats, and network utilization from /proc/net/dev byte
// counters against a configured link capacity.
//
// Samplers are delta-based: the first Sample establishes a baseline
// and reports zero utilization; subsequent calls report utilization
// over the interval since the previous call. The filesystem root is
// configurable so tests (and the synthetic machine used in emulation
// experiments) can point a sampler at fabricated files.
package procfs

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

// Sampler produces one utilization value per source per call, sorted
// by source. The returned slice belongs to the sampler and is valid
// until its next Sample call: monitord encodes it straight into the
// datagram, so a steady-state sample allocates nothing. Implementations
// must be safe for use from a single goroutine; monitord serializes
// calls.
type Sampler interface {
	Sample() ([]model.UtilSample, error)
}

// setSample stores src's value in the source-sorted samples, inserting
// the source at its place if it is new.
func setSample(samples []model.UtilSample, src model.UtilSource, u units.Fraction) []model.UtilSample {
	i := 0
	for i < len(samples) && samples[i].Source < src {
		i++
	}
	if i < len(samples) && samples[i].Source == src {
		samples[i].Util = u
		return samples
	}
	return slices.Insert(samples, i, model.UtilSample{Source: src, Util: u})
}

// Config selects what a ProcSampler monitors.
type Config struct {
	// Root is the filesystem root containing proc files; default
	// "/proc". Point it at a directory of fabricated stat files in
	// tests.
	Root string
	// Disk is the device name to watch in diskstats (e.g. "sda").
	// Empty watches the first physical-looking device.
	Disk string
	// NIC is the interface name in net/dev (e.g. "eth0"). Empty
	// disables network sampling.
	NIC string
	// NICCapacity is the full-duplex link capacity in bytes/second
	// used to normalize network utilization. Default 125e6 (1 Gb/s).
	NICCapacity float64
	// now is the clock used to time deltas; tests override it.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Root == "" {
		c.Root = "/proc"
	}
	if c.NICCapacity <= 0 {
		c.NICCapacity = 125e6
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// ProcSampler reads utilizations from proc files.
type ProcSampler struct {
	mu  sync.Mutex
	cfg Config

	havePrev  bool
	prevCPU   cpuTimes
	prevIO    uint64 // disk io ticks, ms
	prevNet   uint64 // rx+tx bytes
	prevWall  time.Time
	diskFound string
	out       [3]model.UtilSample // Sample's result: cpu, disk, net
}

type cpuTimes struct {
	idle  uint64 // idle + iowait
	total uint64
}

// New builds a ProcSampler.
func New(cfg Config) *ProcSampler {
	return &ProcSampler{cfg: cfg.withDefaults()}
}

// Sample implements Sampler. The first call returns zeros and records
// the baseline.
func (p *ProcSampler) Sample() ([]model.UtilSample, error) {
	p.mu.Lock()
	defer p.mu.Unlock()

	now := p.cfg.now()

	cpu, err := p.readCPU()
	if err != nil {
		return nil, err
	}
	io, err := p.readDisk()
	if err != nil {
		return nil, err
	}
	var net uint64
	if p.cfg.NIC != "" {
		net, err = p.readNet()
		if err != nil {
			return nil, err
		}
	}

	// Already in source order: "cpu" < "disk" < "net".
	p.out = [3]model.UtilSample{{Source: model.UtilCPU}, {Source: model.UtilDisk}, {Source: model.UtilNet}}
	if p.havePrev {
		p.out[0].Util = cpuUtil(p.prevCPU, cpu)
		p.out[1].Util = diskUtil(p.prevIO, io, now.Sub(p.prevWall))
		p.out[2].Util = netUtil(p.prevNet, net, now.Sub(p.prevWall), p.cfg.NICCapacity)
	}
	p.prevCPU, p.prevIO, p.prevNet, p.prevWall = cpu, io, net, now
	p.havePrev = true
	if p.cfg.NIC == "" {
		return p.out[:2], nil
	}
	return p.out[:], nil
}

func cpuUtil(prev, cur cpuTimes) units.Fraction {
	dTotal := float64(cur.total - prev.total)
	dIdle := float64(cur.idle - prev.idle)
	if dTotal <= 0 {
		return 0
	}
	return units.Fraction((dTotal - dIdle) / dTotal).Clamp()
}

func diskUtil(prev, cur uint64, wall time.Duration) units.Fraction {
	if wall <= 0 || cur < prev {
		return 0
	}
	busyMs := float64(cur - prev)
	return units.Fraction(busyMs / float64(wall.Milliseconds())).Clamp()
}

func netUtil(prev, cur uint64, wall time.Duration, capacity float64) units.Fraction {
	if wall <= 0 || cur < prev || capacity <= 0 {
		return 0
	}
	bps := float64(cur-prev) / wall.Seconds()
	return units.Fraction(bps / capacity).Clamp()
}

// readCPU parses the aggregate "cpu" line of /proc/stat:
// cpu user nice system idle iowait irq softirq steal [guest guest_nice]
func (p *ProcSampler) readCPU() (cpuTimes, error) {
	data, err := os.ReadFile(filepath.Join(p.cfg.Root, "stat"))
	if err != nil {
		return cpuTimes{}, fmt.Errorf("procfs: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 5 || fields[0] != "cpu" {
			continue
		}
		var t cpuTimes
		for i, f := range fields[1:] {
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return cpuTimes{}, fmt.Errorf("procfs: bad cpu field %q: %w", f, err)
			}
			t.total += v
			if i == 3 || i == 4 { // idle, iowait
				t.idle += v
			}
		}
		return t, nil
	}
	return cpuTimes{}, fmt.Errorf("procfs: no aggregate cpu line in %s/stat", p.cfg.Root)
}

// readDisk parses /proc/diskstats and returns the io-ticks (field 13,
// milliseconds spent doing I/O) of the configured device.
func (p *ProcSampler) readDisk() (uint64, error) {
	data, err := os.ReadFile(filepath.Join(p.cfg.Root, "diskstats"))
	if err != nil {
		return 0, fmt.Errorf("procfs: %w", err)
	}
	want := p.cfg.Disk
	if want == "" {
		want = p.diskFound
	}
	var firstPhysical string
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 13 {
			continue
		}
		name := fields[2]
		if want == "" {
			if isPartitionLike(name) {
				continue
			}
			if firstPhysical == "" {
				firstPhysical = name
			}
			if name != firstPhysical {
				continue
			}
		} else if name != want {
			continue
		}
		ticks, err := strconv.ParseUint(fields[12], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("procfs: bad io-ticks %q: %w", fields[12], err)
		}
		if want == "" {
			p.diskFound = name
		}
		return ticks, nil
	}
	if want != "" {
		return 0, fmt.Errorf("procfs: disk %q not found in diskstats", want)
	}
	return 0, fmt.Errorf("procfs: no disk devices in diskstats")
}

// isPartitionLike filters out partitions, loop and ram devices when
// auto-detecting the disk.
func isPartitionLike(name string) bool {
	if strings.HasPrefix(name, "loop") || strings.HasPrefix(name, "ram") || strings.HasPrefix(name, "zram") {
		return true
	}
	// sda1, nvme0n1p2, vda3 ... anything ending in a digit preceded by
	// a letter+digits pattern is treated as a partition, except whole
	// nvme/mmc devices (nvme0n1, mmcblk0).
	last := name[len(name)-1]
	if last < '0' || last > '9' {
		return false
	}
	if strings.Contains(name, "nvme") || strings.Contains(name, "mmcblk") {
		return strings.Contains(name, "p")
	}
	return true
}

// readNet parses /proc/net/dev and returns rx+tx bytes of the NIC.
func (p *ProcSampler) readNet() (uint64, error) {
	data, err := os.ReadFile(filepath.Join(p.cfg.Root, "net", "dev"))
	if err != nil {
		return 0, fmt.Errorf("procfs: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		name, rest, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != p.cfg.NIC {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) < 16 {
			return 0, fmt.Errorf("procfs: short net/dev line for %q", p.cfg.NIC)
		}
		rx, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("procfs: bad rx bytes: %w", err)
		}
		tx, err := strconv.ParseUint(fields[8], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("procfs: bad tx bytes: %w", err)
		}
		return rx + tx, nil
	}
	return 0, fmt.Errorf("procfs: interface %q not found in net/dev", p.cfg.NIC)
}

// Synthetic is a Sampler whose values are set programmatically. The
// emulation experiments use it to drive monitord with workload-derived
// utilizations, and tests use it for determinism.
type Synthetic struct {
	mu   sync.Mutex
	vals []model.UtilSample // sorted by source
	out  []model.UtilSample // Sample's result, a copy Set never touches
}

// NewSynthetic builds a Synthetic sampler with all sources at zero.
func NewSynthetic(sources ...model.UtilSource) *Synthetic {
	s := &Synthetic{}
	for _, src := range sources {
		s.vals = setSample(s.vals, src, 0)
	}
	return s
}

// Set updates one source's utilization (clamped to [0,1]).
func (s *Synthetic) Set(src model.UtilSource, u units.Fraction) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vals = setSample(s.vals, src, u.Clamp())
}

// Sample implements Sampler.
func (s *Synthetic) Sample() ([]model.UtilSample, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.out = append(s.out[:0], s.vals...)
	return s.out, nil
}
