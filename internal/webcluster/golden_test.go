package webcluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/lvs"
	"github.com/darklab/mercury/internal/workload"
)

func roomNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("machine%d", i+1)
	}
	return names
}

// goldenRun drives a 64-server cluster through a 150 s trace that
// reaches every branch of TickSecond — an unquiesced power-off (every
// pick refused), a quiesced one, throttled servers whose queues fill
// to QueueCap and carry over, a connection cap, a blocked class — and
// hashes every field of every Tick in machine order. after, if not
// nil, is called after every TickSecond and every SetPower.
func goldenRun(t *testing.T, after func(c *Cluster, at string)) (hash uint64, totals Totals, peakConns int) {
	t.Helper()
	names := roomNames(64)
	bal := lvs.New()
	c, err := New(bal, names, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if after == nil {
		after = func(*Cluster, string) {}
	}
	reqs := workload.GenerateWeb(workload.WebConfig{
		Duration:    150 * time.Second,
		PeakRPS:     64 * 0.9 / Config{}.MeanCPUPerRequest(0.3),
		ValleyShare: 0.6,
		Seed:        3,
	})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	power := func(sec int, m string, on bool) {
		t.Helper()
		must(c.SetPower(m, on))
		after(c, fmt.Sprintf("second %d, SetPower(%s, %v)", sec, m, on))
	}
	h := fnv.New64a()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	idx := 0
	for sec := 0; sec < 150; sec++ {
		switch sec {
		case 30:
			power(sec, "machine5", false)
			must(c.SetSpeed("machine9", 0.5))
			must(bal.SetWeight("machine2", 0.5))
			must(bal.SetConnLimit("machine3", 4))
			must(bal.SetClassBlocked("machine4", ClassDynamic, true))
		case 33:
			must(bal.Quiesce("machine5"))
		case 60:
			for i := 10; i <= 40; i++ {
				must(c.SetSpeed(names[i], 0.4))
			}
		case 90:
			power(sec, "machine5", true)
			must(bal.Resume("machine5"))
			power(sec, "machine20", false)
			must(bal.Quiesce("machine20"))
		case 110:
			for i := 10; i <= 40; i++ {
				must(c.SetSpeed(names[i], 1))
			}
		}
		first := idx
		limit := time.Duration(sec+1) * time.Second
		for idx < len(reqs) && reqs[idx].At < limit {
			idx++
		}
		tick := c.TickSecond(reqs[first:idx])
		after(c, fmt.Sprintf("second %d, TickSecond", sec))
		put(uint64(tick.Arrived))
		put(uint64(tick.Dropped))
		put(uint64(tick.Completed))
		if len(tick.PerServer) != len(names) {
			t.Fatalf("second %d: PerServer has %d entries, want %d", sec, len(tick.PerServer), len(names))
		}
		for i, m := range names {
			st := tick.PerServer[i]
			put(math.Float64bits(float64(st.CPUUtil)))
			put(math.Float64bits(float64(st.DiskUtil)))
			put(uint64(st.Assigned))
			put(uint64(st.Completed))
			put(uint64(st.CompletedDynamic))
			put(uint64(st.Dropped))
			put(uint64(st.Conns))
			if st.Conns > peakConns {
				peakConns = st.Conns
			}
			if n := queueLen(c, m); n != st.Conns {
				t.Fatalf("second %d: Conns(%s) = %d, tick says %d", sec, m, n, st.Conns)
			}
		}
	}
	return h.Sum64(), c.Totals(), peakConns
}

// TestTickGolden pins TickSecond's output to what the name-keyed,
// map-per-tick implementation produced (hash recorded from the commit
// before the request path became index-addressed).
func TestTickGolden(t *testing.T) {
	const want = uint64(0xd32c1de9fa151670)
	hash, totals, peakConns := goldenRun(t, nil)
	if totals.Dropped == 0 || totals.Completed == 0 || peakConns < 190 {
		t.Errorf("trace no longer covers drops and full queues: %+v, peak conns %d", totals, peakConns)
	}
	if hash != want {
		t.Errorf("tick hash = %#x, want %#x", hash, want)
	}
}

// TestBalancerMatchesQueues holds the invariant that lets TickSecond
// release a slot's completions in one call and SetPower a dropped
// queue in one call: between ticks and power changes, the balancer's
// active count for every server is that server's queue length.
func TestBalancerMatchesQueues(t *testing.T) {
	goldenRun(t, func(c *Cluster, at string) {
		t.Helper()
		for _, m := range c.Machines() {
			active, err := c.bal.ActiveConns(m)
			if err != nil {
				t.Fatal(err)
			}
			if queued := queueLen(c, m); active != queued {
				t.Fatalf("%s: balancer has %d active on %s, queue holds %d", at, active, m, queued)
			}
		}
	})
}

// steadySecond is one second of evenly spaced arrivals loading n
// servers to about 70 % CPU, the paper's peak.
func steadySecond(n int) []workload.Request {
	reqs := make([]workload.Request, int(float64(n)*0.7/Config{}.MeanCPUPerRequest(0.3)))
	for i := range reqs {
		reqs[i] = workload.Request{
			At:      time.Duration(i) * time.Second / time.Duration(len(reqs)),
			Dynamic: i%10 < 3,
		}
	}
	return reqs
}

// TickSecond allocates nothing once the queues have grown to their
// working size: PerServer is the cluster's own slice.
func TestTickSecondDoesNotAllocate(t *testing.T) {
	for _, n := range []int{4, 64, 1024} {
		c, err := New(lvs.New(), roomNames(n), Config{})
		if err != nil {
			t.Fatal(err)
		}
		reqs := steadySecond(n)
		for i := 0; i < 5; i++ {
			c.TickSecond(reqs)
		}
		if got := testing.AllocsPerRun(10, func() { c.TickSecond(reqs) }); got != 0 {
			t.Errorf("machines=%d: TickSecond allocates %v times a tick, want 0", n, got)
		}
	}
}

// refSlotOf is the sub-slot rule TickSecond applied to every arrival
// before the bounds replaced it, frozen here as the oracle for them.
func refSlotOf(at time.Duration, slots int) int {
	frac := float64(at%time.Second) / float64(time.Second)
	s := int(frac * float64(slots))
	if s >= slots {
		s = slots - 1
	}
	return s
}

// The integer bounds must put every offset in the sub-slot the float
// rule does. Both are monotone, so checking every boundary and the
// nanoseconds either side of it covers every offset.
func TestSlotBoundsMatchSlotOf(t *testing.T) {
	for _, slots := range []int{1, 2, 3, 7, 10, 60, 1000} {
		end := slotBounds(slots)
		if len(end) != slots || end[slots-1] != time.Second {
			t.Fatalf("slots=%d: %d bounds ending at %v, want %d ending at 1s", slots, len(end), end[len(end)-1], slots)
		}
		slot := func(r time.Duration) int {
			s := 0
			for r >= end[s] {
				s++
			}
			return s
		}
		offsets := []time.Duration{0, time.Second - 1}
		for _, b := range end {
			offsets = append(offsets, b-1, b, b+1)
		}
		for _, r := range offsets {
			if r < 0 || r >= time.Second {
				continue
			}
			if got, want := slot(r), refSlotOf(r, slots); got != want {
				t.Fatalf("slots=%d: offset %d ns falls in sub-slot %d, slotOf says %d", slots, r, got, want)
			}
		}
	}
}

func BenchmarkTickSecond(b *testing.B) {
	for _, n := range []int{4, 64, 1024} {
		b.Run(fmt.Sprintf("machines=%d", n), func(b *testing.B) {
			c, err := New(lvs.New(), roomNames(n), Config{})
			if err != nil {
				b.Fatal(err)
			}
			reqs := steadySecond(n)
			c.TickSecond(reqs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.TickSecond(reqs)
			}
		})
	}
}
