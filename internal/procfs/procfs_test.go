package procfs

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

// writeProc creates a fake proc tree.
func writeProc(t *testing.T, dir string, stat, diskstats, netdev string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, "net"), 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		"stat":      stat,
		"diskstats": diskstats,
	}
	if netdev != "" {
		files[filepath.Join("net", "dev")] = netdev
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

const statA = "cpu  1000 0 500 8000 500 0 0 0\ncpu0 1000 0 500 8000 500 0 0 0\n"

// 1000 ticks later: 600 busy (user+system), 400 idle.
const statB = "cpu  1400 0 700 8300 600 0 0 0\ncpu0 1400 0 700 8300 600 0 0 0\n"

const diskA = "   8       0 sda 100 0 1000 50 200 0 2000 80 0 5000 130\n   8       1 sda1 1 0 8 0 0 0 0 0 0 1 0\n"
const diskB = "   8       0 sda 150 0 1500 70 250 0 2500 95 0 5800 165\n   8       1 sda1 1 0 8 0 0 0 0 0 0 1 0\n"

const netA = `Inter-|   Receive                                                |  Transmit
 face |bytes    packets errs drop fifo frame compressed multicast|bytes    packets errs drop fifo colls carrier compressed
    lo:  100000     500    0    0    0     0          0         0   100000     500    0    0    0     0       0          0
  eth0: 1000000    5000    0    0    0     0          0         0  2000000    8000    0    0    0     0       0          0
`
const netB = `Inter-|   Receive                                                |  Transmit
 face |bytes    packets errs drop fifo frame compressed multicast|bytes    packets errs drop fifo colls carrier compressed
    lo:  100000     500    0    0    0     0          0         0   100000     500    0    0    0     0       0          0
  eth0: 26000000    9000    0    0    0     0          0         0 27000000   12000    0    0    0     0       0          0
`

func fixedClock(times ...time.Time) func() time.Time {
	i := 0
	return func() time.Time {
		t := times[i]
		if i < len(times)-1 {
			i++
		}
		return t
	}
}

// sample takes one sample and indexes it by source for the assertions,
// holding the Sampler contract on the way: sorted by source, each
// source once.
func sample(t *testing.T, s Sampler) map[model.UtilSource]units.Fraction {
	t.Helper()
	got, err := s.Sample()
	if err != nil {
		t.Fatal(err)
	}
	return bySource(t, got)
}

func bySource(t *testing.T, samples []model.UtilSample) map[model.UtilSource]units.Fraction {
	t.Helper()
	out := map[model.UtilSource]units.Fraction{}
	for i, e := range samples {
		if i > 0 && samples[i-1].Source >= e.Source {
			t.Fatalf("sample not sorted by source: %+v", samples)
		}
		out[e.Source] = e.Util
	}
	return out
}

func TestProcSamplerDeltas(t *testing.T) {
	dir := t.TempDir()
	writeProc(t, dir, statA, diskA, netA)
	t0 := time.Unix(1000, 0)
	t1 := t0.Add(time.Second)
	p := New(Config{Root: dir, Disk: "sda", NIC: "eth0", NICCapacity: 125e6,
		now: fixedClock(t0, t1)})

	first := sample(t, p)
	if len(first) != 3 {
		t.Errorf("first sample has %d sources, want cpu, disk, net", len(first))
	}
	for src, v := range first {
		if v != 0 {
			t.Errorf("first sample %s = %v, want 0", src, v)
		}
	}

	writeProc(t, dir, statB, diskB, netB)
	second := sample(t, p)
	// CPU: busy delta 600 of total 1000 -> 60%.
	if got := float64(second[model.UtilCPU]); got < 0.59 || got > 0.61 {
		t.Errorf("cpu util = %v, want ~0.60", got)
	}
	// Disk: io ticks 5800-5000 = 800 ms over 1000 ms wall -> 80%.
	if got := float64(second[model.UtilDisk]); got < 0.79 || got > 0.81 {
		t.Errorf("disk util = %v, want ~0.80", got)
	}
	// Net: (26e6+27e6)-(1e6+2e6) = 50e6 bytes over 1 s at 125e6 cap -> 40%.
	if got := float64(second[model.UtilNet]); got < 0.39 || got > 0.41 {
		t.Errorf("net util = %v, want ~0.40", got)
	}
}

func TestProcSamplerAutoDisk(t *testing.T) {
	dir := t.TempDir()
	disk := "   7       0 loop0 9 9 9 9 9 9 9 9 9 9999 9\n" + diskA
	writeProc(t, dir, statA, disk, "")
	p := New(Config{Root: dir, now: fixedClock(time.Unix(0, 0), time.Unix(1, 0))})
	if _, err := p.Sample(); err != nil {
		t.Fatal(err)
	}
	// Auto-detection must have skipped loop0 and latched sda.
	if p.diskFound != "sda" {
		t.Errorf("auto-detected disk = %q, want sda", p.diskFound)
	}
}

func TestProcSamplerUtilsClamped(t *testing.T) {
	dir := t.TempDir()
	writeProc(t, dir, statA, diskA, "")
	t0 := time.Unix(0, 0)
	p := New(Config{Root: dir, Disk: "sda", now: fixedClock(t0, t0.Add(100*time.Millisecond))})
	if _, err := p.Sample(); err != nil {
		t.Fatal(err)
	}
	// 800 ms of io ticks in a 100 ms window would be >1; must clamp.
	writeProc(t, dir, statB, diskB, "")
	got := sample(t, p)
	if _, ok := got[model.UtilNet]; ok {
		t.Errorf("no NIC configured, yet sampled %+v", got)
	}
	if got[model.UtilDisk] != 1 {
		t.Errorf("disk util = %v, want clamp to 1", got[model.UtilDisk])
	}
}

func TestProcSamplerErrors(t *testing.T) {
	dir := t.TempDir()

	p := New(Config{Root: dir})
	if _, err := p.Sample(); err == nil {
		t.Error("missing files: want error")
	}

	writeProc(t, dir, "intr 123\n", diskA, "")
	p = New(Config{Root: dir})
	if _, err := p.Sample(); err == nil {
		t.Error("no cpu line: want error")
	}

	writeProc(t, dir, statA, diskA, "")
	p = New(Config{Root: dir, Disk: "nvme9n9"})
	if _, err := p.Sample(); err == nil {
		t.Error("unknown disk: want error")
	}

	writeProc(t, dir, statA, diskA, netA)
	p = New(Config{Root: dir, Disk: "sda", NIC: "wlan9"})
	if _, err := p.Sample(); err == nil {
		t.Error("unknown NIC: want error")
	}

	writeProc(t, dir, "cpu  a b c d e\n", diskA, "")
	p = New(Config{Root: dir, Disk: "sda"})
	if _, err := p.Sample(); err == nil {
		t.Error("garbage cpu fields: want error")
	}
}

func TestIsPartitionLike(t *testing.T) {
	cases := []struct {
		name string
		want bool
	}{
		{"sda", false},
		{"sda1", true},
		{"loop0", true},
		{"ram0", true},
		{"zram0", true},
		{"nvme0n1", false},
		{"nvme0n1p2", true},
		{"mmcblk0", false},
		{"mmcblk0p1", true},
		{"vda", false},
		{"vda3", true},
	}
	for _, tc := range cases {
		if got := isPartitionLike(tc.name); got != tc.want {
			t.Errorf("isPartitionLike(%q) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRealProcIfAvailable(t *testing.T) {
	// On a Linux host the sampler should work against the real /proc.
	if _, err := os.Stat("/proc/stat"); err != nil {
		t.Skip("no /proc on this platform")
	}
	p := New(Config{})
	raw, err := p.Sample()
	if err != nil {
		t.Skipf("real /proc unusable here: %v", err)
	}
	if first := bySource(t, raw); first[model.UtilCPU] != 0 {
		t.Errorf("first sample = %v, want 0", first[model.UtilCPU])
	}
	time.Sleep(30 * time.Millisecond)
	second := sample(t, p)
	if !second[model.UtilCPU].Valid() || !second[model.UtilDisk].Valid() {
		t.Errorf("real sample out of range: %+v", second)
	}
}

func TestSynthetic(t *testing.T) {
	// Registered out of order and twice: still one sorted entry each.
	s := NewSynthetic(model.UtilDisk, model.UtilCPU, model.UtilDisk)
	got := sample(t, s)
	if v, ok := got[model.UtilCPU]; len(got) != 2 || !ok || v != 0 || got[model.UtilDisk] != 0 {
		t.Errorf("initial = %+v", got)
	}
	s.Set(model.UtilCPU, 0.7)
	s.Set(model.UtilDisk, units.Fraction(2.5)) // clamps
	raw, _ := s.Sample()
	got = bySource(t, raw)
	if got[model.UtilCPU] != 0.7 {
		t.Errorf("cpu = %v", got[model.UtilCPU])
	}
	if got[model.UtilDisk] != 1 {
		t.Errorf("disk = %v, want clamped 1", got[model.UtilDisk])
	}
	// The returned slice is the sampler's copy-out: a Set while a
	// caller still encodes it, or the caller scribbling on it, must
	// not reach the other side.
	s.Set(model.UtilCPU, 0.2)
	if raw[0].Util != 0.7 {
		t.Error("Set reached a slice already handed out")
	}
	raw[0].Util = 0
	if again := sample(t, s); again[model.UtilCPU] != 0.2 {
		t.Error("sampler state leaked through the returned slice")
	}
	// A source first seen by Set joins the sample, in order.
	s.Set("cpu0", 0.4)
	if got = sample(t, s); len(got) != 3 || got["cpu0"] != 0.4 {
		t.Errorf("after Set of a new source: %+v", got)
	}
}

// TestSyntheticSampleDoesNotAllocate: the batch monitord samples one
// of these per machine per second.
func TestSyntheticSampleDoesNotAllocate(t *testing.T) {
	s := NewSynthetic(model.UtilCPU, model.UtilDisk)
	s.Sample()
	if n := testing.AllocsPerRun(100, func() {
		s.Set(model.UtilDisk, 0.3)
		s.Sample()
	}); n != 0 {
		t.Errorf("Set+Sample: %v allocs/op, want 0", n)
	}
}
