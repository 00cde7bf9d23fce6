package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

func TestSquareShape(t *testing.T) {
	tr := Square("m", model.UtilCPU, []units.Fraction{0.5, 1.0}, 100*time.Second, 50*time.Second)
	// level, idle, level, idle, closing zero.
	if len(tr.Records) != 5 {
		t.Fatalf("records = %d", len(tr.Records))
	}
	if tr.Records[0].Util != 0.5 || tr.Records[0].At != 0 {
		t.Errorf("first = %+v", tr.Records[0])
	}
	if tr.Records[1].Util != 0 || tr.Records[1].At != 100*time.Second {
		t.Errorf("second = %+v", tr.Records[1])
	}
	if tr.Records[2].Util != 1 || tr.Records[2].At != 150*time.Second {
		t.Errorf("third = %+v", tr.Records[2])
	}
	if tr.Duration() != 300*time.Second {
		t.Errorf("duration = %v", tr.Duration())
	}
}

func TestCalibrationBenchmarks(t *testing.T) {
	cpu := CPUCalibration("server")
	if cpu.Duration() != 14000*time.Second {
		t.Errorf("CPU calibration duration = %v, want 14000s (Figure 5)", cpu.Duration())
	}
	for _, r := range cpu.Records {
		if r.Source != model.UtilCPU {
			t.Fatalf("CPU calibration touches %s", r.Source)
		}
	}
	disk := DiskCalibration("server")
	if disk.Duration() != 14000*time.Second {
		t.Errorf("disk calibration duration = %v", disk.Duration())
	}
	for _, r := range disk.Records {
		if r.Source != model.UtilDisk {
			t.Fatalf("disk calibration touches %s", r.Source)
		}
	}
}

func TestCombinedBenchmark(t *testing.T) {
	tr := Combined("m", 7, 5000*time.Second, 50*time.Second)
	if tr.Duration() != 5000*time.Second {
		t.Errorf("duration = %v", tr.Duration())
	}
	// Both sources exercised; values vary.
	perSource := map[model.UtilSource]map[units.Fraction]bool{}
	for _, r := range tr.Records {
		if perSource[r.Source] == nil {
			perSource[r.Source] = map[units.Fraction]bool{}
		}
		perSource[r.Source][r.Util] = true
	}
	if len(perSource[model.UtilCPU]) < 10 || len(perSource[model.UtilDisk]) < 10 {
		t.Errorf("combined benchmark not varied: cpu=%d disk=%d levels",
			len(perSource[model.UtilCPU]), len(perSource[model.UtilDisk]))
	}
	// Deterministic per seed.
	again := Combined("m", 7, 5000*time.Second, 50*time.Second)
	if len(again.Records) != len(tr.Records) {
		t.Fatal("non-deterministic record count")
	}
	for i := range tr.Records {
		if tr.Records[i] != again.Records[i] {
			t.Fatal("non-deterministic records")
		}
	}
	other := Combined("m", 8, 5000*time.Second, 50*time.Second)
	same := len(other.Records) == len(tr.Records)
	if same {
		diff := false
		for i := range tr.Records {
			if tr.Records[i].Util != other.Records[i].Util {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Error("different seeds produced identical benchmarks")
	}
}

func TestWebRateShape(t *testing.T) {
	cfg := WebConfig{Duration: 2000 * time.Second, PeakRPS: 100, ValleyShare: 0.15, Seed: 1}
	start := cfg.Rate(0)
	end := cfg.Rate(2000 * time.Second)
	if start > 20 || end > 20 {
		t.Errorf("valleys too high: start=%v end=%v", start, end)
	}
	// The peak approaches PeakRPS somewhere in the middle.
	peak := 0.0
	for s := 0; s <= 2000; s += 10 {
		if r := cfg.Rate(time.Duration(s) * time.Second); r > peak {
			peak = r
		}
	}
	if peak < 95 {
		t.Errorf("peak = %v, want near 100", peak)
	}
	// Rate stays within [valley, peak] everywhere.
	for s := -100; s <= 2100; s += 7 {
		r := cfg.Rate(time.Duration(s) * time.Second)
		if r < 14.9 || r > 100.1 {
			t.Errorf("rate(%ds) = %v escapes bounds", s, r)
		}
	}
}

func TestGenerateWeb(t *testing.T) {
	cfg := WebConfig{Duration: 2000 * time.Second, PeakRPS: 100, DynamicShare: 0.3, Seed: 1}
	reqs := GenerateWeb(cfg)
	if len(reqs) == 0 {
		t.Fatal("no requests")
	}
	// Arrivals sorted and in range.
	dynamic := 0
	for i, r := range reqs {
		if r.At < 0 || r.At >= cfg.Duration {
			t.Fatalf("request %d at %v outside trace", i, r.At)
		}
		if i > 0 && r.At < reqs[i-1].At {
			t.Fatal("arrivals not sorted")
		}
		if r.Dynamic {
			dynamic++
		}
	}
	share := float64(dynamic) / float64(len(reqs))
	if share < 0.25 || share > 0.35 {
		t.Errorf("dynamic share = %v, want ~0.30", share)
	}
	// More arrivals in the busy middle third than the first (valley).
	third := cfg.Duration / 3
	counts := [3]int{}
	for _, r := range reqs {
		counts[int(r.At/third)]++
	}
	if counts[1] < 2*counts[0] {
		t.Errorf("diurnal shape missing: thirds = %v", counts)
	}
	// Deterministic.
	again := GenerateWeb(cfg)
	if len(again) != len(reqs) {
		t.Error("non-deterministic generation")
	}
}

func TestWebDefaults(t *testing.T) {
	cfg := WebConfig{}.withDefaults()
	if cfg.Duration != 2000*time.Second || cfg.PeakRPS != 100 ||
		cfg.ValleyShare != 0.15 || cfg.DynamicShare != 0.3 {
		t.Errorf("defaults = %+v", cfg)
	}
}

// TestWebConfigNonFinite: a NaN or infinite rate, valley share or
// dynamic share counts as unset. NaN passed every range check and
// infinity none, so such a config used to size the trace's capacity
// out of range and panic.
func TestWebConfigNonFinite(t *testing.T) {
	base := WebConfig{Duration: 20 * time.Second, Seed: 3}
	want := GenerateWeb(base)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field, set := range map[string]func(*WebConfig){
			"PeakRPS":      func(c *WebConfig) { c.PeakRPS = v },
			"ValleyShare":  func(c *WebConfig) { c.ValleyShare = v },
			"DynamicShare": func(c *WebConfig) { c.DynamicShare = v },
		} {
			cfg := base
			set(&cfg)
			for s := 0; s <= 20; s++ {
				if r := cfg.Rate(time.Duration(s) * time.Second); math.IsNaN(r) || math.IsInf(r, 0) {
					t.Errorf("%s = %v: Rate(%ds) = %v, want finite", field, v, s, r)
				}
			}
			if got := GenerateWeb(cfg); !slices.Equal(got, want) {
				t.Errorf("%s = %v: %d requests, want the default trace's %d", field, v, len(got), len(want))
			}
		}
	}
}

// TestGenerateWebGolden pins the generated trace, element for element,
// to what GenerateWeb produced before it presized its output (hashes
// recorded from that commit), and checks the presizing itself: the
// capacity is close to the length, so nothing regrew and little is
// wasted. Two shapes, the 4-machine Figure 11 trace and a short
// 64-machine one, plus the envelope's edge cases.
func TestGenerateWebGolden(t *testing.T) {
	cases := []struct {
		cfg  WebConfig
		n    int
		hash uint64
	}{
		{WebConfig{Duration: 2000 * time.Second, PeakRPS: 4 * 0.7 / 0.0089, Seed: 1}, 430445, 0xccb60bcb20ae657f},
		{WebConfig{Duration: 2000 * time.Second, PeakRPS: 4 * 0.7 / 0.0089, Seed: 7}, 431396, 0x37518934efb0acfb},
		{WebConfig{Duration: 150 * time.Second, PeakRPS: 64 * 0.7 / 0.0089, Seed: 1}, 516742, 0xbe3c99caa0ba31e9},
		{WebConfig{Duration: 150 * time.Second, PeakRPS: 64 * 0.7 / 0.0089, Seed: 7}, 517946, 0x9d5d48274e93c176},
		// Envelope edges, recorded before the generator thinned against
		// a precomputed rate envelope: a trace whose envelope buckets
		// (Duration/1024) are narrower than the mean gap between
		// candidates, a flat curve (ValleyShare 1), non-finite fields
		// that withDefaults replaces, and a long high-peak trace whose
		// buckets each span tens of thousands of candidates.
		{WebConfig{Duration: 10 * time.Second, PeakRPS: 20, Seed: 3}, 123, 0xccaa3585440bcbad},
		{WebConfig{Duration: 600 * time.Second, PeakRPS: 50, ValleyShare: 1, Seed: 5}, 30012, 0xe7bf59198e729790},
		{WebConfig{PeakRPS: math.NaN(), ValleyShare: math.Inf(1), DynamicShare: math.Inf(-1), Seed: 11}, 136721, 0x20120f7af08d58eb},
		{WebConfig{Duration: 6 * time.Hour, PeakRPS: 250, Seed: 13}, 3706314, 0x703bd09929903ce3},
	}
	for _, tc := range cases {
		reqs := GenerateWeb(tc.cfg)
		h := fnv.New64a()
		var word [9]byte
		for _, r := range reqs {
			binary.LittleEndian.PutUint64(word[:], uint64(r.At))
			word[8] = 0
			if r.Dynamic {
				word[8] = 1
			}
			h.Write(word[:])
		}
		if len(reqs) != tc.n || h.Sum64() != tc.hash {
			t.Errorf("%v seed %d: %d requests hashing to %#x, want %d and %#x",
				tc.cfg.Duration, tc.cfg.Seed, len(reqs), h.Sum64(), tc.n, tc.hash)
		}
		// Four standard deviations of slack are within 10% of the
		// length only from about 1600 requests on.
		if c := cap(reqs); len(reqs) >= 10000 && float64(c) > 1.1*float64(len(reqs)) {
			t.Errorf("%v seed %d: capacity %d for %d requests, want within 10%%",
				tc.cfg.Duration, tc.cfg.Seed, c, len(reqs))
		}
	}
}

// webTraces are the web traces of the two online benchmark workloads,
// as TestGenerateWebGolden pins them (seed left to the caller).
var webTraces = []struct {
	name string
	cfg  WebConfig
}{
	{"fig11-stack", WebConfig{Duration: 2000 * time.Second, PeakRPS: 4 * 0.7 / 0.0089}},
	{"room64-batch", WebConfig{Duration: 150 * time.Second, PeakRPS: 64 * 0.7 / 0.0089}},
}

// TestWebGenMatchesGenerateWeb: however a consumer chooses its limits,
// each Next pull returns exactly the arrivals before its limit, and the
// pulls concatenate to GenerateWeb's trace element for element.
func TestWebGenMatchesGenerateWeb(t *testing.T) {
	for _, tr := range webTraces {
		for _, seed := range []int64{1, 7} {
			cfg := tr.cfg
			cfg.Seed = seed
			want := GenerateWeb(cfg)
			end := cfg.Duration
			var whole, random, arrivals []time.Duration
			for l := time.Second; l <= end; l += time.Second {
				whole = append(whole, l)
			}
			rng := rand.New(rand.NewSource(seed))
			for l := time.Duration(0); l < end; l += time.Duration(rng.Int63n(int64(3 * time.Second))) {
				random = append(random, l)
			}
			// A limit equal to an arrival's At leaves that arrival for a
			// later pull; the same limit again returns nothing new.
			for i := 0; i < len(want); i += len(want)/97 + 1 {
				arrivals = append(arrivals, want[i].At, want[i].At)
			}
			for name, limits := range map[string][]time.Duration{
				"whole seconds":           whole,
				"random limits":           random,
				"arrival instants, twice": arrivals,
			} {
				limits = append(limits, end+time.Hour, end+time.Hour)
				g := NewWebGen(cfg)
				var got []Request
				for _, limit := range limits {
					got = g.Next(got, limit)
					if n := sort.Search(len(want), func(i int) bool { return want[i].At >= limit }); len(got) != n {
						t.Fatalf("%s seed %d, %s: %d arrivals before %v, want %d", tr.name, seed, name, len(got), limit, n)
					}
				}
				if !slices.Equal(got, want) {
					t.Errorf("%s seed %d, %s: pulls differ from GenerateWeb", tr.name, seed, name)
				}
			}
		}
	}
}

var traceSink []Request

func BenchmarkGenerateWeb(b *testing.B) {
	for _, tr := range webTraces {
		cfg := tr.cfg
		cfg.Seed = 1
		b.Run(tr.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				traceSink = GenerateWeb(cfg)
			}
		})
	}
}

var genSink *WebGen

// BenchmarkNewWebGen prices a generator's construction, rate envelope
// included, apart from the draws.
func BenchmarkNewWebGen(b *testing.B) {
	cfg := webTraces[0].cfg
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		genSink = NewWebGen(cfg)
	}
}
