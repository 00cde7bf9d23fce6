package lvs

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

func newB(t *testing.T, names ...string) *Balancer {
	t.Helper()
	b := New()
	for _, n := range names {
		if err := b.AddServer(n, 1); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func TestAddRemove(t *testing.T) {
	b := New()
	if err := b.AddServer("", 1); err == nil {
		t.Error("empty name: want error")
	}
	if err := b.AddServer("s1", 0); err == nil {
		t.Error("zero weight: want error")
	}
	if err := b.AddServer("s1", 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddServer("s1", 1); err == nil {
		t.Error("duplicate: want error")
	}
	if got := b.Servers(); len(got) != 1 || got[0] != "s1" {
		t.Errorf("Servers = %v", got)
	}
	if err := b.RemoveServer("s1"); err != nil {
		t.Fatal(err)
	}
	if err := b.RemoveServer("s1"); err == nil {
		t.Error("remove twice: want error")
	}
	if len(b.Servers()) != 0 {
		t.Error("server not removed")
	}
}

// Non-finite weights would turn TotalWeight, and every key the
// tournament compares, into NaN; both registration and reweighting
// refuse them, naming the server, and leave the balancer as it was.
func TestNonFiniteWeightsRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		what, name string // name is the server the error must mention
		call       func(b *Balancer) error
	}{
		{"AddServer NaN", "a", func(b *Balancer) error { return b.AddServer("a", nan) }},
		{"AddServer +Inf", "a", func(b *Balancer) error { return b.AddServer("a", inf) }},
		{"AddServer -Inf", "a", func(b *Balancer) error { return b.AddServer("a", -inf) }},
		{"SetWeight NaN", "b", func(b *Balancer) error { return b.SetWeight("b", nan) }},
		{"SetWeight +Inf", "b", func(b *Balancer) error { return b.SetWeight("b", inf) }},
		{"SetWeight -Inf", "b", func(b *Balancer) error { return b.SetWeight("b", -inf) }},
	} {
		b := newB(t, "b")
		if err := tc.call(b); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.name)) {
			t.Errorf("%s: error %v, want one naming %q", tc.what, err, tc.name)
		}
		if got := b.TotalWeight(); got != 1 {
			t.Errorf("%s: TotalWeight = %v, want 1", tc.what, got)
		}
		if got := b.Servers(); len(got) != 1 {
			t.Errorf("%s: Servers = %v, want [b]", tc.what, got)
		}
		if name, err := b.Assign(); name != "b" || err != nil {
			t.Errorf("%s: Assign = %q, %v, want b", tc.what, name, err)
		}
	}
}

func TestEmptyBalancerHasNoServer(t *testing.T) {
	b := New()
	if _, err := b.Assign(); !errors.Is(err, ErrNoServer) {
		t.Errorf("Assign on an empty balancer: %v, want ErrNoServer", err)
	}
	if _, err := b.AssignIndex("dynamic"); !errors.Is(err, ErrNoServer) {
		t.Errorf("AssignIndex on an empty balancer: %v, want ErrNoServer", err)
	}
	if err := b.DoneIndex(0, 1); err == nil {
		t.Error("DoneIndex on an empty balancer: want error")
	}
	b = newB(t, "s1")
	if err := b.RemoveServer("s1"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Assign(); !errors.Is(err, ErrNoServer) {
		t.Errorf("Assign after removing every server: %v, want ErrNoServer", err)
	}
}

func TestLeastConnections(t *testing.T) {
	b := newB(t, "s1", "s2")
	// First goes to s1 (tie, registration order), second to s2, then
	// they alternate as connections accumulate.
	counts := map[string]int{}
	for i := 0; i < 10; i++ {
		name, err := b.Assign()
		if err != nil {
			t.Fatal(err)
		}
		counts[name]++
	}
	if counts["s1"] != 5 || counts["s2"] != 5 {
		t.Errorf("equal-weight distribution = %v, want 5/5", counts)
	}
}

func TestWeightedDistribution(t *testing.T) {
	b := New()
	b.AddServer("big", 3)
	b.AddServer("small", 1)
	counts := map[string]int{}
	for i := 0; i < 400; i++ {
		name, err := b.Assign()
		if err != nil {
			t.Fatal(err)
		}
		counts[name]++
	}
	// big should get ~3x the connections.
	ratio := float64(counts["big"]) / float64(counts["small"])
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("weighted ratio = %v (counts %v), want ~3", ratio, counts)
	}
}

func TestDoneRebalances(t *testing.T) {
	b := newB(t, "s1", "s2")
	// Load s1 with 5 connections directly.
	for i := 0; i < 5; i++ {
		b.Assign()
		b.Assign()
	}
	// Drain s1 completely; next assignments should prefer it.
	for i := 0; i < 5; i++ {
		if err := b.Done("s1"); err != nil {
			t.Fatal(err)
		}
	}
	name, _ := b.Assign()
	if name != "s1" {
		t.Errorf("after draining, assignment went to %s", name)
	}
	if err := b.Done("ghost"); err == nil {
		t.Error("Done unknown: want error")
	}
	for i := 0; i < 10; i++ {
		b.Done("s1")
	}
	if err := b.Done("s1"); err == nil {
		t.Error("Done below zero: want error")
	}
}

func TestZeroWeightExcludes(t *testing.T) {
	b := newB(t, "s1", "s2")
	b.SetWeight("s1", 0)
	for i := 0; i < 5; i++ {
		name, err := b.Assign()
		if err != nil {
			t.Fatal(err)
		}
		if name != "s2" {
			t.Errorf("zero-weight server still assigned")
		}
	}
	if w, _ := b.Weight("s1"); w != 0 {
		t.Errorf("weight = %v", w)
	}
	if err := b.SetWeight("s1", -1); err == nil {
		t.Error("negative weight: want error")
	}
}

func TestWeightReductionShiftsLoad(t *testing.T) {
	// Freon's mechanism: reducing a hot server's weight moves new load
	// to the others.
	b := newB(t, "hot", "cool1", "cool2")
	b.SetWeight("hot", 0.25)
	counts := map[string]int{}
	for i := 0; i < 900; i++ {
		name, err := b.Assign()
		if err != nil {
			t.Fatal(err)
		}
		counts[name]++
	}
	// hot should carry about 0.25/2.25 = 11% of connections.
	share := float64(counts["hot"]) / 900
	if share < 0.08 || share > 0.15 {
		t.Errorf("hot share = %v (counts %v), want ~0.11", share, counts)
	}
}

func TestConnectionCap(t *testing.T) {
	b := newB(t, "s1", "s2")
	if err := b.SetConnLimit("s1", 3); err != nil {
		t.Fatal(err)
	}
	if l, _ := b.ConnLimit("s1"); l != 3 {
		t.Errorf("limit = %d", l)
	}
	counts := map[string]int{}
	for i := 0; i < 10; i++ {
		name, err := b.Assign()
		if err != nil {
			t.Fatal(err)
		}
		counts[name]++
	}
	if counts["s1"] != 3 || counts["s2"] != 7 {
		t.Errorf("capped distribution = %v, want 3/7", counts)
	}
	if err := b.SetConnLimit("s1", -1); err == nil {
		t.Error("negative cap: want error")
	}
}

func TestAllCappedDrops(t *testing.T) {
	b := newB(t, "s1")
	b.SetConnLimit("s1", 1)
	if _, err := b.Assign(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Assign(); !errors.Is(err, ErrNoServer) {
		t.Errorf("want ErrNoServer, got %v", err)
	}
}

func TestQuiesceAndResume(t *testing.T) {
	b := newB(t, "s1", "s2")
	if err := b.Quiesce("s1"); err != nil {
		t.Fatal(err)
	}
	if q, _ := b.Quiesced("s1"); !q {
		t.Error("not quiesced")
	}
	for i := 0; i < 4; i++ {
		name, err := b.Assign()
		if err != nil || name != "s2" {
			t.Fatalf("assignment during quiesce: %s %v", name, err)
		}
	}
	if err := b.Resume("s1"); err != nil {
		t.Fatal(err)
	}
	name, _ := b.Assign()
	if name != "s1" {
		t.Errorf("resumed server not preferred (0 conns): got %s", name)
	}
}

func TestAllQuiescedDrops(t *testing.T) {
	b := newB(t, "s1")
	b.Quiesce("s1")
	if _, err := b.Assign(); !errors.Is(err, ErrNoServer) {
		t.Errorf("want ErrNoServer, got %v", err)
	}
}

func TestTotalWeight(t *testing.T) {
	b := New()
	b.AddServer("s1", 2)
	b.AddServer("s2", 3)
	if got := b.TotalWeight(); got != 5 {
		t.Errorf("TotalWeight = %v", got)
	}
	b.Quiesce("s2")
	if got := b.TotalWeight(); got != 2 {
		t.Errorf("TotalWeight after quiesce = %v", got)
	}
}

func TestCountersAndErrors(t *testing.T) {
	b := newB(t, "s1")
	b.Assign()
	b.Assign()
	if n, _ := b.ActiveConns("s1"); n != 2 {
		t.Errorf("ActiveConns = %d", n)
	}
	if a, _ := b.Assigned("s1"); a != 2 {
		t.Errorf("Assigned = %d", a)
	}
	for _, call := range []func() error{
		func() error { return b.SetWeight("ghost", 1) },
		func() error { _, err := b.Weight("ghost"); return err },
		func() error { return b.SetConnLimit("ghost", 1) },
		func() error { _, err := b.ConnLimit("ghost"); return err },
		func() error { return b.Quiesce("ghost") },
		func() error { return b.Resume("ghost") },
		func() error { _, err := b.Quiesced("ghost"); return err },
		func() error { _, err := b.ActiveConns("ghost"); return err },
		func() error { _, err := b.Assigned("ghost"); return err },
	} {
		if call() == nil {
			t.Error("unknown server: want error")
		}
	}
}

// loaded builds a balancer of n servers holding uneven connection
// counts, so a pick has to scan past servers that do not win.
func loaded(tb testing.TB, n int) *Balancer {
	tb.Helper()
	b := New()
	for i := 0; i < n; i++ {
		if err := b.AddServer(fmt.Sprintf("machine%d", i+1), 1); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 3*n; i++ {
		if _, err := b.Assign(); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < n; i += 3 {
		if err := b.DoneIndex(i, 1); err != nil {
			tb.Fatal(err)
		}
	}
	return b
}

// Both picks, the tree's root and the scan behind a blocked leader,
// and both forms of each call must not allocate.
func TestAssignDoneDoNotAllocate(t *testing.T) {
	b := loaded(t, 64)
	if err := b.SetClassBlocked("machine1", "dynamic", true); err != nil {
		t.Fatal(err)
	}
	for _, class := range []string{"static", "dynamic"} {
		byName := testing.AllocsPerRun(1000, func() {
			name, err := b.AssignClass(class)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Done(name); err != nil {
				t.Fatal(err)
			}
		})
		byIndex := testing.AllocsPerRun(1000, func() {
			i, err := b.AssignIndex(class)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.DoneIndex(i, 1); err != nil {
				t.Fatal(err)
			}
		})
		if byName != 0 || byIndex != 0 {
			t.Errorf("%s: allocations per assign+done: %v by name, %v by index, want 0", class, byName, byIndex)
		}
	}
}

func TestIndexIsStableAcrossRemoval(t *testing.T) {
	b := newB(t, "s1", "s2", "s3")
	if err := b.RemoveServer("s2"); err != nil {
		t.Fatal(err)
	}
	if i, ok := b.Index("s3"); !ok || i != 2 {
		t.Errorf("Index(s3) = %d, %v after removing s2, want 2", i, ok)
	}
	if _, ok := b.Index("s2"); ok {
		t.Error("removed server still has an index")
	}
	if err := b.DoneIndex(1, 1); err == nil {
		t.Error("DoneIndex on a removed server: want error")
	}
	if err := b.DoneIndex(3, 1); err == nil {
		t.Error("DoneIndex out of range: want error")
	}
	if err := b.DoneIndex(0, 0); err == nil {
		t.Error("DoneIndex releasing 0 connections: want error")
	}
	for n := 0; n < 4; n++ {
		if i, err := b.AssignIndex(""); err != nil || i == 1 {
			t.Fatalf("AssignIndex = %d, %v; the removed slot must never be picked", i, err)
		}
	}
	// Registering the name again appends: it ties behind s1 and s3.
	if err := b.AddServer("s2", 1); err != nil {
		t.Fatal(err)
	}
	if i, ok := b.Index("s2"); !ok || i != 3 {
		t.Errorf("Index(s2) = %d, %v after re-adding, want 3", i, ok)
	}
}

// BenchmarkAssignDone is the balancer's layer benchmark: one request
// assigned and released, through the name-based calls the control
// plane and the whole-stack benchmark use and through the index-based
// calls webcluster.TickSecond uses. The blocked-leader variant prices
// the scan a pick falls back to when the least-loaded server refuses
// the request's class (Freon's content-aware stage).
func BenchmarkAssignDone(b *testing.B) {
	for _, n := range []int{4, 64, 1024} {
		b.Run(fmt.Sprintf("servers=%d/by=name", n), func(b *testing.B) {
			bal := loaded(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				name, _ := bal.AssignClass("dynamic")
				_ = bal.Done(name)
			}
		})
		b.Run(fmt.Sprintf("servers=%d/by=index", n), func(b *testing.B) {
			bal := loaded(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, _ := bal.AssignIndex("dynamic")
				_ = bal.DoneIndex(s, 1)
			}
		})
	}
	b.Run("servers=64/blocked-leader", func(b *testing.B) {
		bal := loaded(b, 64)
		if err := bal.SetClassBlocked("machine1", "dynamic", true); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, _ := bal.AssignIndex("dynamic")
			_ = bal.DoneIndex(s, 1)
		}
	})
}
