package workload

import (
	"math"
	"testing"
	"time"

	"dcsprint/internal/trace"
)

// mustTrace unwraps a generator result, panicking (and so failing the
// test) on error, in the style of template.Must.
func mustTrace(s *trace.Series, err error) *trace.Series {
	if err != nil {
		panic(err)
	}
	return s
}

func TestSyntheticMSMatchesPaperStatistics(t *testing.T) {
	s := mustTrace(SyntheticMS(1))
	if got := s.Duration(); got != 30*time.Minute {
		t.Fatalf("duration = %v, want 30 min", got)
	}
	st := Analyze(s)
	// §VII-B: "the real burst duration of the MS trace is 16.2 minutes".
	if st.AggregateDuration != MSBurstDuration {
		t.Fatalf("aggregate burst duration = %v, want %v", st.AggregateDuration, MSBurstDuration)
	}
	// Peak demand is ~3x the no-sprinting capacity (9 GB/s vs 3 GB/s).
	if st.PeakDemand < 2.8 || st.PeakDemand > 3.2 {
		t.Fatalf("peak demand = %v, want ~3.0", st.PeakDemand)
	}
	// Baseline stays below capacity outside bursts.
	if s.Samples[0] >= 1 || s.Samples[s.Len()-1] >= 1 {
		t.Fatal("trace starts or ends inside a burst")
	}
}

func TestSyntheticMSDeterministic(t *testing.T) {
	a, b := mustTrace(SyntheticMS(42)), mustTrace(SyntheticMS(42))
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	c := mustTrace(SyntheticMS(43))
	same := true
	for i := range a.Samples {
		if a.Samples[i] != c.Samples[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestSyntheticYahooBurstInjection(t *testing.T) {
	for _, tt := range []struct {
		degree   float64
		duration time.Duration
	}{
		{2.6, 5 * time.Minute},
		{3.2, 15 * time.Minute},
		{3.6, 10 * time.Minute},
	} {
		s := mustTrace(SyntheticYahoo(7, tt.degree, tt.duration))
		if got := s.Duration(); got != 30*time.Minute {
			t.Fatalf("duration = %v", got)
		}
		st := Analyze(s)
		// The burst peaks near degree x (0.85..1.0 baseline).
		if st.PeakDemand < tt.degree*0.85 || st.PeakDemand > tt.degree*1.01 {
			t.Errorf("degree %v: peak = %v", tt.degree, st.PeakDemand)
		}
		// Over-demand time is close to the injected duration (ramps can
		// shave the edges).
		if st.AggregateDuration < tt.duration-time.Minute || st.AggregateDuration > tt.duration+time.Minute {
			t.Errorf("degree %v: burst time = %v, want ~%v", tt.degree, st.AggregateDuration, tt.duration)
		}
		// Before the burst the demand is within normal capacity.
		if pre := s.Slice(0, 4*time.Minute); pre.Max() > 1 {
			t.Errorf("pre-burst demand %v exceeds capacity", pre.Max())
		}
	}
}

func TestSyntheticYahooNoBurst(t *testing.T) {
	for _, tt := range []struct {
		name     string
		degree   float64
		duration time.Duration
	}{
		{"degree 1", 1, 10 * time.Minute},
		{"degree below 1", 0.5, 10 * time.Minute},
		{"zero duration", 3, 0},
	} {
		t.Run(tt.name, func(t *testing.T) {
			s := mustTrace(SyntheticYahoo(7, tt.degree, tt.duration))
			if got := s.Max(); got > 1 {
				t.Fatalf("max = %v, want <= 1 without a burst", got)
			}
		})
	}
}

func TestSyntheticYahooBurstClampedToTrace(t *testing.T) {
	s := mustTrace(SyntheticYahoo(7, 3, 2*time.Hour)) // longer than the window
	if got := s.Duration(); got != 30*time.Minute {
		t.Fatalf("duration = %v", got)
	}
	st := Analyze(s)
	if st.AggregateDuration > 25*time.Minute+time.Second {
		t.Fatalf("burst time = %v, want <= 25 min (window minus lead-in)", st.AggregateDuration)
	}
}

func TestSyntheticMSDayShape(t *testing.T) {
	s := mustTrace(SyntheticMSDay(3))
	if got := s.Duration(); got != 24*time.Hour {
		t.Fatalf("duration = %v, want 24 h", got)
	}
	if max := s.Max(); max < 8 || max > 10 {
		t.Fatalf("peak traffic = %v GB/s, want ~9", max)
	}
	if min := s.Min(); min < 1 || min > 3 {
		t.Fatalf("baseline floor = %v GB/s, want 1-3", min)
	}
	// Bursty: several distinct minutes above 4.5 GB/s, but far from all.
	var above time.Duration
	for _, v := range s.Samples {
		if v > 4.5 {
			above += s.Step
		}
	}
	if above < 10*time.Minute || above > 4*time.Hour {
		t.Fatalf("time above 4.5 GB/s = %v", above)
	}
}

func TestAnalyzeNoBurst(t *testing.T) {
	s := mustTrace(SyntheticYahoo(9, 1, 0))
	st := Analyze(s)
	if st.AggregateDuration != 0 || st.MeanBurstDemand != 0 || st.ExcessIntegral != 0 {
		t.Fatalf("no-burst stats = %+v", st)
	}
	if st.PeakDemand <= 0 {
		t.Fatal("peak demand must still be reported")
	}
}

func TestAnalyzeExcessIntegral(t *testing.T) {
	s := mustTrace(SyntheticYahoo(11, 3.0, 10*time.Minute))
	st := Analyze(s)
	// Excess is bounded by (peak-1) x burst time.
	upper := (st.PeakDemand - 1) * st.AggregateDuration.Seconds()
	if st.ExcessIntegral <= 0 || st.ExcessIntegral > upper {
		t.Fatalf("excess integral %v outside (0, %v]", st.ExcessIntegral, upper)
	}
	if st.MeanBurstDemand <= 1 || st.MeanBurstDemand > st.PeakDemand {
		t.Fatalf("mean burst demand %v outside (1, peak]", st.MeanBurstDemand)
	}
}

func TestEstimateWithError(t *testing.T) {
	e := Estimate{BurstDuration: 16*time.Minute + 12*time.Second, AvgDegree: 2.5}
	tests := []struct {
		err     float64
		wantDur time.Duration
		wantDeg float64
	}{
		{0, e.BurstDuration, 2.5},
		{0.5, time.Duration(float64(e.BurstDuration) * 1.5), 3.75},
		{-0.5, time.Duration(float64(e.BurstDuration) * 0.5), 1.25},
		{-1, 0, 0},
		{-2, 0, 0}, // clamped at -100%
	}
	for _, tt := range tests {
		got := e.WithError(tt.err)
		if got.BurstDuration != tt.wantDur {
			t.Errorf("WithError(%v).BurstDuration = %v, want %v", tt.err, got.BurstDuration, tt.wantDur)
		}
		if math.Abs(got.AvgDegree-tt.wantDeg) > 1e-12 {
			t.Errorf("WithError(%v).AvgDegree = %v, want %v", tt.err, got.AvgDegree, tt.wantDeg)
		}
	}
}
