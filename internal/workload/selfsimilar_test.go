package workload

import (
	"math"
	"testing"
	"time"

	"dcsprint/internal/trace"
)

func ssConfig(bias float64) SelfSimilarConfig {
	return SelfSimilarConfig{Bias: bias, Levels: 11, Mean: 0.7, Step: time.Second}
}

func TestSelfSimilarValidate(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*SelfSimilarConfig)
		ok   bool
	}{
		{"default", func(c *SelfSimilarConfig) {}, true},
		{"bias below 0.5", func(c *SelfSimilarConfig) { c.Bias = 0.4 }, false},
		{"bias 1", func(c *SelfSimilarConfig) { c.Bias = 1 }, false},
		{"bias exactly 0.5", func(c *SelfSimilarConfig) { c.Bias = 0.5 }, true},
		{"zero levels", func(c *SelfSimilarConfig) { c.Levels = 0 }, false},
		{"too many levels", func(c *SelfSimilarConfig) { c.Levels = 30 }, false},
		{"zero mean", func(c *SelfSimilarConfig) { c.Mean = 0 }, false},
		{"zero step", func(c *SelfSimilarConfig) { c.Step = 0 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := ssConfig(0.7)
			tt.mut(&cfg)
			_, err := SelfSimilar(1, cfg)
			if (err == nil) != tt.ok {
				t.Fatalf("SelfSimilar = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestSelfSimilarConservesMean(t *testing.T) {
	for _, bias := range []float64{0.5, 0.6, 0.7, 0.8} {
		s, err := SelfSimilar(1, ssConfig(bias))
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Mean(); math.Abs(got-0.7) > 1e-9 {
			t.Fatalf("bias %v: mean = %v, want 0.7 (cascade conserves mass)", bias, got)
		}
		if s.Len() != 2048 {
			t.Fatalf("len = %d, want 2^11", s.Len())
		}
		if s.Min() < 0 {
			t.Fatalf("negative traffic at bias %v", bias)
		}
	}
}

func TestSelfSimilarBurstinessGrowsWithBias(t *testing.T) {
	prev := 0.0
	for _, bias := range []float64{0.5, 0.6, 0.7, 0.8} {
		s, err := SelfSimilar(1, ssConfig(bias))
		if err != nil {
			t.Fatal(err)
		}
		b := BurstinessIndex(s)
		if b < prev {
			t.Fatalf("burstiness not increasing at bias %v: %v < %v", bias, b, prev)
		}
		prev = b
	}
	// The uniform cascade is flat; high bias is very spiky.
	flat, err := SelfSimilar(1, ssConfig(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if got := BurstinessIndex(flat); math.Abs(got-1) > 1e-9 {
		t.Fatalf("bias 0.5 burstiness = %v, want exactly 1", got)
	}
	if prev < 3 {
		t.Fatalf("bias 0.8 burstiness = %v, want spiky (>3)", prev)
	}
}

func TestSelfSimilarDeterministic(t *testing.T) {
	a, err := SelfSimilar(42, ssConfig(0.7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := SelfSimilar(42, ssConfig(0.7))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatal("same seed diverged")
		}
	}
}

func TestBurstinessIndexEdgeCases(t *testing.T) {
	zero, err := trace.New(time.Second, []float64{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := BurstinessIndex(zero); got != 0 {
		t.Fatalf("zero trace burstiness = %v", got)
	}
}

func TestEpisodesExtraction(t *testing.T) {
	s, err := trace.New(time.Second, []float64{0.5, 1.2, 1.8, 0.9, 1.1, 1.1, 1.1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	eps := Episodes(s)
	if len(eps) != 2 {
		t.Fatalf("episodes = %d, want 2", len(eps))
	}
	a, b := eps[0], eps[1]
	if a.Start != time.Second || a.Duration != 2*time.Second || a.Peak != 1.8 {
		t.Fatalf("first episode = %+v", a)
	}
	if math.Abs(a.Mean-1.5) > 1e-12 {
		t.Fatalf("first episode mean = %v", a.Mean)
	}
	if b.Start != 4*time.Second || b.Duration != 3*time.Second || b.Peak != 1.1 {
		t.Fatalf("second episode = %+v", b)
	}
	if got := a.Duration + b.Duration; got != 5*time.Second {
		t.Fatalf("total over capacity = %v", got)
	}
}

func TestEpisodesOpenAtEnd(t *testing.T) {
	s, err := trace.New(time.Second, []float64{0.5, 1.4, 1.6})
	if err != nil {
		t.Fatal(err)
	}
	eps := Episodes(s)
	if len(eps) != 1 {
		t.Fatalf("episodes = %d", len(eps))
	}
	if math.Abs(eps[0].Mean-1.5) > 1e-12 {
		t.Fatalf("trailing episode mean = %v", eps[0].Mean)
	}
}

func TestEpisodesMatchAnalyze(t *testing.T) {
	ms := mustTrace(SyntheticMS(1))
	eps := Episodes(ms)
	var total time.Duration
	for _, e := range eps {
		total += e.Duration
	}
	if got := total; got != Analyze(ms).AggregateDuration {
		t.Fatalf("episode total %v != analyze %v", got, Analyze(ms).AggregateDuration)
	}
	if len(eps) != len(msSegments) {
		t.Fatalf("episodes = %d, want %d (the MS segments)", len(eps), len(msSegments))
	}
}
