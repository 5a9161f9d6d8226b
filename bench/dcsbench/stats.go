package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the p-quantile of sorted data by the exclusive method of
// Python's statistics.quantiles (Hyndman–Fan type 6): rank p·(n+1),
// interpolated between its neighbours. Ranks outside [1, n] clamp to the
// extremes, so a timing percentile never exceeds the largest sample; for
// three or more values the quartiles equal Python's exactly, which is how
// the regression gate computes them. Empty data yields NaN.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	h := p * float64(n+1)
	switch {
	case h <= 1:
		return sorted[0]
	case h >= float64(n):
		return sorted[n-1]
	}
	j := int(h)
	return sorted[j-1] + (h-float64(j))*(sorted[j]-sorted[j-1])
}

// spread summarizes one set of values.
type spread struct {
	n              int
	median, q1, q3 float64
	min, max       float64
}

func summarize(values []float64) spread {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) == 0 {
		nan := math.NaN()
		return spread{median: nan, q1: nan, q3: nan, min: nan, max: nan}
	}
	return spread{
		n:      len(s),
		median: quantile(s, 0.5),
		q1:     quantile(s, 0.25),
		q3:     quantile(s, 0.75),
		min:    s[0],
		max:    s[len(s)-1],
	}
}

// iqr is the distance between the quartiles.
func (s spread) iqr() float64 { return s.q3 - s.q1 }

// rel returns x as a share of the median's magnitude.
func (s spread) rel(x float64) float64 { return x / math.Abs(s.median) }

// timings holds raw operation latencies in nanoseconds; the percentiles are
// exact, computed from every sample rather than from histogram buckets.
type timings []float64

func (t *timings) add(d time.Duration) { *t = append(*t, float64(d)) }

// ns returns the p-quantile in nanoseconds.
func (t timings) ns(p float64) float64 {
	s := append([]float64(nil), t...)
	sort.Float64s(s)
	return quantile(s, p)
}

// us returns the p-quantile in microseconds.
func (t timings) us(p float64) float64 { return t.ns(p) / 1e3 }

func median(values []float64) float64 { return summarize(values).median }
