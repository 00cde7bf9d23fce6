// Package stats provides the small time-series and reporting toolkit
// the experiment harness uses: sampled series, error metrics between
// an emulated and a reference series (the paper's "within 1 degree C"
// claims), and plain-text chart/table rendering so every figure of the
// evaluation can be regenerated on a terminal and diffed in CI.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Point is one sample of a time series.
type Point struct {
	At    time.Duration
	Value float64
}

// Series is an append-only sampled signal.
type Series struct {
	Name   string
	Points []Point
}

// NewSeries creates an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends a sample. Samples should be appended in time order;
// Sorted() can repair out-of-order insertion.
func (s *Series) Add(at time.Duration, v float64) {
	s.Points = append(s.Points, Point{At: at, Value: v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Points) }

// Sorted returns the series sorted by time (stable; in place).
func (s *Series) Sorted() *Series {
	sort.SliceStable(s.Points, func(i, j int) bool { return s.Points[i].At < s.Points[j].At })
	return s
}

// At linearly interpolates the series at time t. Outside the sampled
// range it clamps to the first/last value. It returns NaN for an empty
// series.
func (s *Series) At(t time.Duration) float64 {
	if len(s.Points) == 0 {
		return math.NaN()
	}
	pts := s.Points
	if t <= pts[0].At {
		return pts[0].Value
	}
	if t >= pts[len(pts)-1].At {
		return pts[len(pts)-1].Value
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].At >= t })
	a, b := pts[i-1], pts[i]
	if b.At == t || b.At == a.At {
		return b.Value
	}
	frac := float64(t-a.At) / float64(b.At-a.At)
	// Each product is rounded on its own, here and below, so arm64
	// cannot fuse it into the sum it feeds.
	return a.Value + float64(frac*(b.Value-a.Value))
}

// Min returns the smallest value (NaN if empty).
func (s *Series) Min() float64 {
	if len(s.Points) == 0 {
		return math.NaN()
	}
	m := s.Points[0].Value
	for _, p := range s.Points[1:] {
		if p.Value < m {
			m = p.Value
		}
	}
	return m
}

// Max returns the largest value (NaN if empty).
func (s *Series) Max() float64 {
	if len(s.Points) == 0 {
		return math.NaN()
	}
	m := s.Points[0].Value
	for _, p := range s.Points[1:] {
		if p.Value > m {
			m = p.Value
		}
	}
	return m
}

// Mean returns the arithmetic mean of the values (NaN if empty).
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, p := range s.Points {
		sum += p.Value
	}
	return sum / float64(len(s.Points))
}

// Last returns the final value (NaN if empty).
func (s *Series) Last() float64 {
	if len(s.Points) == 0 {
		return math.NaN()
	}
	return s.Points[len(s.Points)-1].Value
}

// Quantile returns the q-quantile of values (0 <= q <= 1) using
// linear interpolation between order statistics, the same estimate
// spreadsheets and numpy default to. The input need not be sorted and
// is not modified; NaN values are ignored. It returns NaN for an
// empty (or all-NaN) input or an out-of-range q. Telemetry histogram
// and ring-buffer summaries reuse this for their p50/p95/p99 lines.
func Quantile(values []float64, q float64) float64 {
	if q < 0 || q > 1 {
		return math.NaN()
	}
	clean := make([]float64, 0, len(values))
	for _, v := range values {
		if !math.IsNaN(v) {
			clean = append(clean, v)
		}
	}
	if len(clean) == 0 {
		return math.NaN()
	}
	sort.Float64s(clean)
	pos := float64(q * float64(len(clean)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return clean[lo]
	}
	frac := pos - float64(lo)
	return clean[lo] + float64(frac*(clean[hi]-clean[lo]))
}

// Compare holds error metrics between an emulated series and a
// reference series, evaluated at the emulated series' sample times.
type Compare struct {
	RMSE    float64
	MaxAbs  float64
	MeanAbs float64
	N       int
}

// CompareSeries evaluates emulated-vs-reference error at every sample
// of the emulated series (interpolating the reference).
func CompareSeries(emulated, reference *Series) Compare {
	var c Compare
	var sumSq, sumAbs float64
	for _, p := range emulated.Points {
		ref := reference.At(p.At)
		if math.IsNaN(ref) {
			continue
		}
		d := p.Value - ref
		sumSq += float64(d * d)
		a := math.Abs(d)
		sumAbs += a
		if a > c.MaxAbs {
			c.MaxAbs = a
		}
		c.N++
	}
	if c.N > 0 {
		c.RMSE = math.Sqrt(sumSq / float64(c.N))
		c.MeanAbs = sumAbs / float64(c.N)
	}
	return c
}

// String formats the comparison for experiment output.
func (c Compare) String() string {
	return fmt.Sprintf("n=%d rmse=%.3f maxabs=%.3f meanabs=%.3f", c.N, c.RMSE, c.MaxAbs, c.MeanAbs)
}
