package main

import (
	"math"
	"testing"
)

func TestQuantileMatchesPythonExclusive(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	nine := []float64{1, 1, 2, 3, 4, 5, 5, 6, 9} // sorted 3 1 4 1 5 9 2 6 5
	for _, c := range []struct {
		data []float64
		p    float64
		want float64
	}{
		// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{ten, 0.25, 2.75},
		{ten, 0.50, 5.5},
		{ten, 0.75, 8.25},
		// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5], n=4) == [1.5, 4.0, 5.5]
		{nine, 0.25, 1.5},
		{nine, 0.50, 4},
		{nine, 0.75, 5.5},
		// rank 0.99·11 = 10.89 is past the last sample: clamp, never extrapolate.
		{ten, 0.99, 10},
		// rank 0.25·3 = 0.75 is before the first sample.
		{[]float64{4, 8}, 0.25, 4},
		{[]float64{7}, 0.5, 7},
	} {
		if got := quantile(c.data, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.data, c.p, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of no data = %v, want NaN", got)
	}
}

func TestSpreadAndTimings(t *testing.T) {
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.n != 10 || s.median != 5.5 || s.iqr() != 5.5 || s.rel(s.iqr()) != 1 || s.min != 1 || s.max != 10 {
		t.Errorf("summarize(1..10) = %+v, iqr %v", s, s.iqr())
	}
	var tm timings
	for _, ns := range []float64{4000, 1000, 3000, 2000} {
		tm = append(tm, ns)
	}
	// rank 0.5·5 = 2.5 over sorted 1000 2000 3000 4000.
	if got := tm.us(0.5); got != 2.5 {
		t.Errorf("timings p50 = %v µs, want 2.5", got)
	}
}

func TestJudge(t *testing.T) {
	seq := func(base, step float64) []float64 {
		v := make([]float64, 10)
		for i := range v {
			v[i] = base + step*float64(i)
		}
		return v
	}
	parent := seq(100, 1) // median 104.5, IQR 5.5
	for _, c := range []struct {
		name   string
		change []float64
		better string
		bound  float64
		want   string
	}{
		{"every pair wins by more than the IQR", seq(110, 1), "higher", 0.1, improved},
		{"worse by more than the bound", seq(120, 1), "lower", 0.1, regressed},
		{"within the bound", seq(99, 1), "higher", 0.1, unchanged},
		{"gain smaller than the parent's IQR", seq(103, 1), "higher", 0.1, unchanged},
		{"parent spread wider than the bound", seq(101, 1), "higher", 0.01, unresolved},
	} {
		if got := judge(parent, c.change, c.better, c.bound); got.verdict != c.want {
			t.Errorf("%s: verdict %s (wins %d/%d), want %s", c.name, got.verdict, got.wins, got.pairs, c.want)
		}
	}
	// Nine pairs cannot support a gain however large.
	if got := judge(parent[:9], seq(200, 1)[:9], "higher", 0.1); got.verdict != unchanged {
		t.Errorf("nine pairs: verdict %s, want %s", got.verdict, unchanged)
	}
}
