// Package trace provides the uniform-step time series used across dcsprint:
// workload demand traces, power telemetry and experiment outputs.
//
// A Series is a sequence of float64 samples spaced Step apart, starting at
// t = 0. Series values are interpreted as a step function: the value on
// [i*Step, (i+1)*Step) is Samples[i]. This matches the 1-second-tick
// simulation engine, which reads one sample per tick.
package trace

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// ErrEmpty is returned by operations that require at least one sample.
var ErrEmpty = errors.New("trace: empty series")

// Series is a uniformly sampled time series starting at t = 0.
type Series struct {
	// Step is the sample spacing. It must be positive.
	Step time.Duration
	// Samples holds one value per step.
	Samples []float64
}

// New returns a Series with the given step and samples. The samples slice is
// copied so later mutation by the caller cannot alias the series.
func New(step time.Duration, samples []float64) (*Series, error) {
	if step <= 0 {
		return nil, fmt.Errorf("trace: non-positive step %v", step)
	}
	s := make([]float64, len(samples))
	copy(s, samples)
	return &Series{Step: step, Samples: s}, nil
}

// Constant returns a series holding value v for the given duration.
func Constant(step time.Duration, d time.Duration, v float64) (*Series, error) {
	if step <= 0 {
		return nil, fmt.Errorf("trace: non-positive step %v", step)
	}
	n := int(d / step)
	if n <= 0 {
		return nil, fmt.Errorf("trace: duration %v shorter than step %v", d, step)
	}
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = v
	}
	return &Series{Step: step, Samples: samples}, nil
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Samples) }

// Duration returns the total time span covered by the series.
func (s *Series) Duration() time.Duration {
	return time.Duration(len(s.Samples)) * s.Step
}

// At returns the sample covering time t. Times before the series start
// return the first sample; times at or past the end return the last.
func (s *Series) At(t time.Duration) float64 {
	if len(s.Samples) == 0 {
		return 0
	}
	i := int(t / s.Step)
	if i < 0 {
		i = 0
	}
	if i >= len(s.Samples) {
		i = len(s.Samples) - 1
	}
	return s.Samples[i]
}

// Clone returns a deep copy of the series.
func (s *Series) Clone() *Series {
	out := &Series{Step: s.Step, Samples: make([]float64, len(s.Samples))}
	copy(out.Samples, s.Samples)
	return out
}

// Slice returns the sub-series covering [from, to). The bounds are clamped
// to the series extent.
func (s *Series) Slice(from, to time.Duration) *Series {
	lo := int(from / s.Step)
	hi := int(to / s.Step)
	if lo < 0 {
		lo = 0
	}
	if hi > len(s.Samples) {
		hi = len(s.Samples)
	}
	if hi < lo {
		hi = lo
	}
	out := &Series{Step: s.Step, Samples: make([]float64, hi-lo)}
	copy(out.Samples, s.Samples[lo:hi])
	return out
}

// Scale multiplies every sample by k in place and returns the series.
func (s *Series) Scale(k float64) *Series {
	for i := range s.Samples {
		s.Samples[i] *= k
	}
	return s
}

// Resample returns a new series with the given step. Downsampling averages
// the covered source samples; upsampling repeats them (step-function
// semantics).
func (s *Series) Resample(step time.Duration) (*Series, error) {
	if step <= 0 {
		return nil, fmt.Errorf("trace: non-positive step %v", step)
	}
	if len(s.Samples) == 0 {
		return &Series{Step: step}, nil
	}
	n := int(s.Duration() / step)
	if n == 0 {
		n = 1
	}
	out := &Series{Step: step, Samples: make([]float64, n)}
	for i := 0; i < n; i++ {
		t0 := time.Duration(i) * step
		t1 := t0 + step
		lo := int(t0 / s.Step)
		hi := int((t1 + s.Step - 1) / s.Step)
		if hi > len(s.Samples) {
			hi = len(s.Samples)
		}
		if lo >= hi {
			out.Samples[i] = s.Samples[len(s.Samples)-1]
			continue
		}
		sum := 0.0
		for j := lo; j < hi; j++ {
			sum += s.Samples[j]
		}
		out.Samples[i] = sum / float64(hi-lo)
	}
	return out, nil
}

// Max returns the maximum sample, or 0 for an empty series.
func (s *Series) Max() float64 {
	if len(s.Samples) == 0 {
		return 0
	}
	m := s.Samples[0]
	for _, v := range s.Samples[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum sample, or 0 for an empty series.
func (s *Series) Min() float64 {
	if len(s.Samples) == 0 {
		return 0
	}
	m := s.Samples[0]
	for _, v := range s.Samples[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Mean returns the arithmetic mean, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.Samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Samples {
		sum += v
	}
	return sum / float64(len(s.Samples))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank on a sorted copy. It returns an error for an empty series.
func (s *Series) Percentile(p float64) (float64, error) {
	if len(s.Samples) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("trace: percentile %v out of range", p)
	}
	sorted := make([]float64, len(s.Samples))
	copy(sorted, s.Samples)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], nil
}

// Integral returns the time integral of the series (sample value × step
// seconds, summed). For a power series in watts this is energy in joules.
func (s *Series) Integral() float64 {
	sum := 0.0
	for _, v := range s.Samples {
		sum += v
	}
	return sum * s.Step.Seconds()
}

// Map applies f to every sample in place and returns the series.
func (s *Series) Map(f func(float64) float64) *Series {
	for i, v := range s.Samples {
		s.Samples[i] = f(v)
	}
	return s
}

// Append extends the series with the samples of other, which must share the
// same step.
func (s *Series) Append(other *Series) error {
	if s.Step != other.Step {
		return fmt.Errorf("trace: step mismatch %v vs %v", s.Step, other.Step)
	}
	s.Samples = append(s.Samples, other.Samples...)
	return nil
}
