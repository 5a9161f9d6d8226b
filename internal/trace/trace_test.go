package trace

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func mustNew(t *testing.T, step time.Duration, samples []float64) *Series {
	t.Helper()
	s, err := New(step, samples)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestNewCopiesSamples(t *testing.T) {
	in := []float64{1, 2, 3}
	s := mustNew(t, time.Second, in)
	in[0] = 99
	if s.Samples[0] != 1 {
		t.Fatal("New did not copy the input slice")
	}
}

func TestNewRejectsBadStep(t *testing.T) {
	for _, step := range []time.Duration{0, -time.Second} {
		if _, err := New(step, nil); err == nil {
			t.Errorf("New(step=%v) succeeded, want error", step)
		}
	}
}

func TestConstant(t *testing.T) {
	s, err := Constant(time.Second, 10*time.Second, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d, want 10", s.Len())
	}
	for i, v := range s.Samples {
		if v != 2.5 {
			t.Fatalf("Samples[%d] = %v, want 2.5", i, v)
		}
	}
	if _, err := Constant(time.Second, 100*time.Millisecond, 1); err == nil {
		t.Fatal("Constant with sub-step duration succeeded, want error")
	}
	if _, err := Constant(0, time.Second, 1); err == nil {
		t.Fatal("Constant with zero step succeeded, want error")
	}
}

func TestAtClampsAndIndexes(t *testing.T) {
	s := mustNew(t, time.Second, []float64{10, 20, 30})
	tests := []struct {
		at   time.Duration
		want float64
	}{
		{-5 * time.Second, 10},
		{0, 10},
		{999 * time.Millisecond, 10},
		{time.Second, 20},
		{2*time.Second + 500*time.Millisecond, 30},
		{time.Minute, 30},
	}
	for _, tt := range tests {
		if got := s.At(tt.at); got != tt.want {
			t.Errorf("At(%v) = %v, want %v", tt.at, got, tt.want)
		}
	}
	var empty Series
	empty.Step = time.Second
	if got := empty.At(0); got != 0 {
		t.Errorf("empty At = %v, want 0", got)
	}
}

func TestDuration(t *testing.T) {
	s := mustNew(t, 2*time.Second, []float64{1, 2, 3})
	if got := s.Duration(); got != 6*time.Second {
		t.Fatalf("Duration = %v, want 6s", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := mustNew(t, time.Second, []float64{1, 2})
	c := s.Clone()
	c.Samples[0] = 42
	if s.Samples[0] != 1 {
		t.Fatal("Clone shares backing storage")
	}
}

func TestSlice(t *testing.T) {
	s := mustNew(t, time.Second, []float64{0, 1, 2, 3, 4, 5})
	tests := []struct {
		name     string
		from, to time.Duration
		want     []float64
	}{
		{"middle", 2 * time.Second, 4 * time.Second, []float64{2, 3}},
		{"clamped high", 4 * time.Second, time.Minute, []float64{4, 5}},
		{"clamped low", -time.Second, 2 * time.Second, []float64{0, 1}},
		{"inverted", 5 * time.Second, time.Second, []float64{}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := s.Slice(tt.from, tt.to)
			if got.Len() != len(tt.want) {
				t.Fatalf("len = %d, want %d", got.Len(), len(tt.want))
			}
			for i := range tt.want {
				if got.Samples[i] != tt.want[i] {
					t.Errorf("Samples[%d] = %v, want %v", i, got.Samples[i], tt.want[i])
				}
			}
		})
	}
}

func TestScaleNormalize(t *testing.T) {
	s := mustNew(t, time.Second, []float64{1, 2, 4})
	s.Scale(2)
	if s.Samples[2] != 8 {
		t.Fatalf("Scale: got %v, want 8", s.Samples[2])
	}
	// Scaling by the reciprocal of the peak normalizes the series to 1.
	s.Scale(1 / s.Max())
	if s.Samples[2] != 1 || s.Samples[0] != 0.25 {
		t.Fatalf("Scale to unit peak: got %v", s.Samples)
	}
}

func TestResampleDown(t *testing.T) {
	s := mustNew(t, time.Second, []float64{1, 3, 5, 7})
	r, err := s.Resample(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 || r.Samples[0] != 2 || r.Samples[1] != 6 {
		t.Fatalf("Resample down: got %v", r.Samples)
	}
}

func TestResampleUp(t *testing.T) {
	s := mustNew(t, 2*time.Second, []float64{1, 5})
	r, err := s.Resample(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 5, 5}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	for i := range want {
		if r.Samples[i] != want[i] {
			t.Errorf("Samples[%d] = %v, want %v", i, r.Samples[i], want[i])
		}
	}
}

func TestResampleErrors(t *testing.T) {
	s := mustNew(t, time.Second, []float64{1})
	if _, err := s.Resample(0); err == nil {
		t.Fatal("Resample(0) succeeded, want error")
	}
	var empty Series
	empty.Step = time.Second
	r, err := empty.Resample(2 * time.Second)
	if err != nil || r.Len() != 0 {
		t.Fatalf("empty resample: %v %v", r, err)
	}
}

func TestStats(t *testing.T) {
	s := mustNew(t, time.Second, []float64{4, -2, 10, 0})
	if s.Max() != 10 {
		t.Errorf("Max = %v", s.Max())
	}
	if s.Min() != -2 {
		t.Errorf("Min = %v", s.Min())
	}
	if s.Mean() != 3 {
		t.Errorf("Mean = %v", s.Mean())
	}
	var empty Series
	if empty.Max() != 0 || empty.Min() != 0 || empty.Mean() != 0 {
		t.Error("empty series stats must be 0")
	}
}

func TestPercentile(t *testing.T) {
	s := mustNew(t, time.Second, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1},
		{10, 1},
		{50, 5},
		{90, 9},
		{100, 10},
	}
	for _, tt := range tests {
		got, err := s.Percentile(tt.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", tt.p, err)
		}
		if got != tt.want {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if _, err := s.Percentile(-1); err == nil {
		t.Error("Percentile(-1) succeeded")
	}
	if _, err := s.Percentile(101); err == nil {
		t.Error("Percentile(101) succeeded")
	}
	var empty Series
	if _, err := empty.Percentile(50); err != ErrEmpty {
		t.Errorf("empty Percentile err = %v, want ErrEmpty", err)
	}
}

func TestIntegral(t *testing.T) {
	s := mustNew(t, 2*time.Second, []float64{100, 200, 50})
	if got := s.Integral(); got != 700 {
		t.Fatalf("Integral = %v, want 700", got)
	}
}

func TestMap(t *testing.T) {
	s := mustNew(t, time.Second, []float64{1, 2, 3})
	s.Map(func(v float64) float64 { return v * v })
	if s.Samples[2] != 9 {
		t.Fatalf("Map: got %v", s.Samples)
	}
}

func TestAppend(t *testing.T) {
	a := mustNew(t, time.Second, []float64{1})
	b := mustNew(t, time.Second, []float64{2, 3})
	if err := a.Append(b); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 3 || a.Samples[2] != 3 {
		t.Fatalf("Append: got %v", a.Samples)
	}
	c := mustNew(t, time.Minute, []float64{4})
	if err := a.Append(c); err == nil {
		t.Fatal("step mismatch accepted")
	}
}

// Property: resampling preserves the integral (energy) up to boundary
// truncation when the new step divides the duration evenly.
func TestResampleConservesIntegralProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		// Pad to an even number of bounded samples.
		samples := make([]float64, 0, len(raw)+1)
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			samples = append(samples, math.Mod(v, 1e6))
		}
		if len(samples)%2 == 1 {
			samples = append(samples, 0)
		}
		s, err := New(time.Second, samples)
		if err != nil {
			return false
		}
		r, err := s.Resample(2 * time.Second)
		if err != nil {
			return false
		}
		return math.Abs(r.Integral()-s.Integral()) < 1e-6*math.Max(1, math.Abs(s.Integral()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Max >= Mean >= Min for any non-empty series of finite values.
func TestStatsOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			samples[i] = math.Mod(v, 1e9)
		}
		s, err := New(time.Second, samples)
		if err != nil {
			return false
		}
		const eps = 1e-9
		return s.Max() >= s.Mean()-eps && s.Mean() >= s.Min()-eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
