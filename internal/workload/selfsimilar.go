package workload

import (
	"fmt"
	"math/rand"
	"time"

	"dcsprint/internal/trace"
)

// SelfSimilarConfig parameterizes the b-model traffic synthesizer.
type SelfSimilarConfig struct {
	// Bias is the b-model's split parameter in (0.5, 1): at every scale,
	// a fraction Bias of the traffic of an interval lands in one half.
	// 0.5 is uniform (no burstiness); values toward 1 are extremely
	// bursty. Internet and data-center traffic measurements typically
	// fit 0.6-0.8.
	Bias float64
	// Levels is the cascade depth: the trace has 2^Levels samples.
	Levels int
	// Mean is the average normalized demand of the result.
	Mean float64
	// Step is the sample spacing.
	Step time.Duration
}

// Validate reports whether the configuration is usable.
func (c SelfSimilarConfig) Validate() error {
	if c.Bias < 0.5 || c.Bias >= 1 {
		return fmt.Errorf("workload: bias %v out of [0.5, 1)", c.Bias)
	}
	if c.Levels < 1 || c.Levels > 24 {
		return fmt.Errorf("workload: levels %d out of [1, 24]", c.Levels)
	}
	if c.Mean <= 0 {
		return fmt.Errorf("workload: non-positive mean %v", c.Mean)
	}
	if c.Step <= 0 {
		return fmt.Errorf("workload: non-positive step %v", c.Step)
	}
	return nil
}

// SelfSimilar synthesizes a bursty demand trace with the b-model — the
// binary multiplicative cascade that reproduces the self-similar burstiness
// of measured data-center traffic (the character of Fig 1) with a single
// parameter. Each level of the cascade splits every interval's traffic
// unevenly (Bias vs 1-Bias, random side), so bursts appear at every time
// scale. The result is normalized to the requested mean.
func SelfSimilar(seed int64, cfg SelfSimilarConfig) (*trace.Series, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	n := 1 << cfg.Levels
	samples := make([]float64, n)
	samples[0] = float64(n) * cfg.Mean // total traffic, split downward
	for width := n; width > 1; width /= 2 {
		for start := 0; start < n; start += width {
			total := samples[start]
			hi := cfg.Bias * total
			lo := total - hi
			if rng.Intn(2) == 0 {
				hi, lo = lo, hi
			}
			samples[start] = hi
			samples[start+width/2] = lo
		}
	}
	s, err := trace.New(cfg.Step, samples)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// BurstinessIndex measures a trace's burstiness as the ratio of its 99th
// percentile to its mean — 1 for constant traffic, growing with bias.
func BurstinessIndex(s *trace.Series) float64 {
	mean := s.Mean()
	if mean <= 0 {
		return 0
	}
	p99, err := s.Percentile(99)
	if err != nil {
		return 0
	}
	return p99 / mean
}

// Episode is one contiguous over-capacity excursion of a normalized trace.
type Episode struct {
	// Start is the beginning of the excursion.
	Start time.Duration
	// Duration is how long demand stayed above capacity.
	Duration time.Duration
	// Peak and Mean describe the demand within it.
	Peak, Mean float64
}

// Episodes extracts the over-capacity excursions of a normalized trace —
// the "bursts" the economics model counts (K) and the endurance analysis
// cycles over.
func Episodes(s *trace.Series) []Episode {
	var out []Episode
	var cur *Episode
	var sum float64
	var count int
	for i, v := range s.Samples {
		if v > 1 {
			if cur == nil {
				out = append(out, Episode{Start: time.Duration(i) * s.Step})
				cur = &out[len(out)-1]
				sum, count = 0, 0
			}
			cur.Duration += s.Step
			if v > cur.Peak {
				cur.Peak = v
			}
			sum += v
			count++
			continue
		}
		if cur != nil {
			cur.Mean = sum / float64(count)
			cur = nil
		}
	}
	if cur != nil {
		cur.Mean = sum / float64(count)
	}
	return out
}
