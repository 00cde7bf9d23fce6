package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sec(n float64) time.Duration { return time.Duration(n * float64(time.Second)) }

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("cpu")
	if !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) {
		t.Error("empty series stats should be NaN")
	}
	s.Add(0, 10)
	s.Add(sec(10), 20)
	s.Add(sec(20), 15)
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.Min() != 10 || s.Max() != 20 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSeriesAt(t *testing.T) {
	s := NewSeries("x")
	s.Add(0, 0)
	s.Add(sec(10), 100)
	cases := []struct {
		t    time.Duration
		want float64
	}{
		{-sec(5), 0},   // clamp before
		{0, 0},         // exact
		{sec(5), 50},   // interpolated
		{sec(10), 100}, // exact end
		{sec(50), 100}, // clamp after
		{sec(2.5), 25}, // interpolated
	}
	for _, tc := range cases {
		if got := s.At(tc.t); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("At(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
	if !math.IsNaN(NewSeries("e").At(0)) {
		t.Error("empty At should be NaN")
	}
}

func TestSeriesAtInterpolationBounds(t *testing.T) {
	// Interpolated values never escape the convex hull of neighbors.
	s := NewSeries("x")
	s.Add(0, 3)
	s.Add(sec(1), 7)
	s.Add(sec(2), 5)
	f := func(ms uint16) bool {
		at := time.Duration(ms) * time.Millisecond * 2 // 0..131s
		v := s.At(at)
		return v >= 3-1e-9 && v <= 7+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSorted(t *testing.T) {
	s := NewSeries("x")
	s.Add(sec(10), 1)
	s.Add(0, 2)
	s.Add(sec(5), 3)
	s.Sorted()
	if s.Points[0].At != 0 || s.Points[2].At != sec(10) {
		t.Errorf("not sorted: %+v", s.Points)
	}
}

func TestCompareSeries(t *testing.T) {
	em := NewSeries("emulated")
	ref := NewSeries("real")
	for i := 0; i <= 10; i++ {
		em.Add(sec(float64(i)), float64(i)+0.5) // constant +0.5 bias
		ref.Add(sec(float64(i)), float64(i))
	}
	c := CompareSeries(em, ref)
	if c.N != 11 {
		t.Errorf("N = %d", c.N)
	}
	if math.Abs(c.MaxAbs-0.5) > 1e-9 || math.Abs(c.RMSE-0.5) > 1e-9 || math.Abs(c.MeanAbs-0.5) > 1e-9 {
		t.Errorf("compare = %+v", c)
	}
}

func TestCompareSeriesIdentical(t *testing.T) {
	a := NewSeries("a")
	for i := 0; i < 5; i++ {
		a.Add(sec(float64(i)), math.Sin(float64(i)))
	}
	c := CompareSeries(a, a)
	if c.RMSE != 0 || c.MaxAbs != 0 {
		t.Errorf("self-compare = %+v", c)
	}
}

func TestCompareSeriesEmptyReference(t *testing.T) {
	a := NewSeries("a")
	a.Add(0, 1)
	c := CompareSeries(a, NewSeries("empty"))
	if c.N != 0 {
		t.Errorf("N = %d, want 0 (nothing comparable)", c.N)
	}
}

func TestChartRender(t *testing.T) {
	s1 := NewSeries("emulated")
	s2 := NewSeries("real")
	for i := 0; i <= 100; i++ {
		s1.Add(sec(float64(i)), 20+10*math.Sin(float64(i)/10))
		s2.Add(sec(float64(i)), 20.5+10*math.Sin(float64(i)/10))
	}
	c := &Chart{Title: "Figure 7", YLabel: "C", Series: []*Series{s1, s2}}
	out := c.Render()
	for _, want := range []string{"Figure 7", "* emulated", "+ real", "0s", "100s"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 16 {
		t.Errorf("chart too short: %d lines", len(lines))
	}
}

func TestChartEmpty(t *testing.T) {
	c := &Chart{Title: "empty"}
	if !strings.Contains(c.Render(), "(no data)") {
		t.Error("empty chart should say so")
	}
}

func TestChartFlatSeries(t *testing.T) {
	s := NewSeries("flat")
	s.Add(0, 5)
	s.Add(sec(10), 5)
	out := (&Chart{Series: []*Series{s}}).Render()
	if !strings.Contains(out, "*") {
		t.Error("flat series not drawn")
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{
		Title:   "Steady state",
		Headers: []string{"cpu_w", "disk_w", "mercury", "fluent", "delta"},
	}
	tb.AddRow(31.0, 14.0, 76.312, 76.25, 0.062)
	tb.AddRow(7.0, 9.0, 35.0, 35.1, -0.10)
	out := tb.Render()
	for _, want := range []string{"Steady state", "| cpu_w", "| 76.312", "| -0.1 "} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// Columns align: every data row has the same length.
	var lens []int
	for _, line := range strings.Split(strings.TrimSpace(out), "\n")[1:] {
		lens = append(lens, len(line))
	}
	for _, l := range lens {
		if l != lens[0] {
			t.Errorf("ragged table:\n%s", out)
			break
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{Headers: []string{"a", "b"}}
	tb.AddRow("x,y", 1.5)
	tb.AddRow(`say "hi"`, 2)
	csv := tb.CSV()
	want := "a,b\n\"x,y\",1.5\n\"say \"\"hi\"\"\",2\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}
