package cooling

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"dcsprint/internal/units"
)

const peakIT = 10 * units.Megawatt

func newRoom(t *testing.T) *Room {
	t.Helper()
	r, err := NewRoom(Default(peakIT))
	if err != nil {
		t.Fatalf("NewRoom: %v", err)
	}
	return r
}

func TestDefaultValidates(t *testing.T) {
	if err := Default(peakIT).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"default", func(c *Config) {}, true},
		{"zero IT", func(c *Config) { c.PeakNormalIT = 0 }, false},
		{"PUE below 1", func(c *Config) { c.PUE = 0.9 }, false},
		{"threshold below ambient", func(c *Config) { c.Threshold = 20 }, false},
		{"zero capacity", func(c *Config) { c.ThermalCapacity = 0 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := Default(peakIT)
			tt.mut(&cfg)
			if err := cfg.Validate(); (err == nil) != tt.ok {
				t.Fatalf("Validate = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestNormalCoolingPowerFromPUE(t *testing.T) {
	// PUE 1.53 on 10 MW IT -> 5.3 MW of cooling power.
	got := Default(peakIT).NormalCoolingPower()
	if math.Abs(float64(got-5.3*units.Megawatt)) > 1 {
		t.Fatalf("NormalCoolingPower = %v, want 5.3 MW", got)
	}
}

func TestSchneiderCFDCalibration(t *testing.T) {
	// The calibration datum: a full outage (absorbed = 0) at peak normal
	// IT load reaches the threshold at exactly the 5-minute mark — so
	// resuming the chiller at the 5th minute keeps the room safe.
	r := newRoom(t)
	for s := 0; s < 299; s++ {
		r.Step(peakIT, 0, time.Second)
		if r.Overheated() {
			t.Fatalf("overheated at %d s, before the 5-minute budget", s+1)
		}
	}
	// One or two more ticks cross the threshold (float accumulation can
	// leave the 300th tick a rounding error below it).
	r.Step(peakIT, 0, time.Second)
	r.Step(peakIT, 0, time.Second)
	if !r.Overheated() {
		t.Fatalf("not overheated at 301 s: temp %v", r.Temperature())
	}
}

func TestChillerResumeAtFiveMinutesIsSafe(t *testing.T) {
	// Resume full cooling one step before the budget expires: temperature
	// must plateau below the threshold and then recover toward ambient.
	r := newRoom(t)
	for s := 0; s < 299; s++ {
		r.Step(peakIT, 0, time.Second)
	}
	peakTemp := r.Temperature()
	for s := 0; s < 600; s++ {
		r.Step(peakIT, peakIT*1.1, time.Second) // slight surplus cooling
		if r.Overheated() {
			t.Fatal("overheated after cooling resumed")
		}
	}
	if r.Temperature() >= peakTemp {
		t.Fatalf("temperature did not recover: %v -> %v", peakTemp, r.Temperature())
	}
}

func TestRoomNeverBelowAmbient(t *testing.T) {
	r := newRoom(t)
	for s := 0; s < 100; s++ {
		r.Step(0, peakIT, time.Second)
	}
	if got := r.Temperature(); got != 25 {
		t.Fatalf("temperature %v fell below ambient", got)
	}
}

func TestStepIgnoresBadDt(t *testing.T) {
	r := newRoom(t)
	r.Step(peakIT, 0, 0)
	r.Step(peakIT, 0, -time.Second)
	if r.Temperature() != 25 {
		t.Fatal("non-positive dt changed the temperature")
	}
}

func TestTimeToThreshold(t *testing.T) {
	cfg := Default(peakIT)
	r := newRoom(t)
	d, finite := cfg.TimeToThresholdFrom(r.Temperature(), peakIT)
	if !finite {
		t.Fatal("full gap reported as never overheating")
	}
	if math.Abs(d.Seconds()-300) > 1 {
		t.Fatalf("TimeToThresholdFrom(full gap) = %v, want 5 min", d)
	}
	// Half the gap -> double the time.
	d, _ = cfg.TimeToThresholdFrom(r.Temperature(), peakIT/2)
	if math.Abs(d.Seconds()-600) > 1 {
		t.Fatalf("TimeToThresholdFrom(half gap) = %v, want 10 min", d)
	}
	if _, finite := cfg.TimeToThresholdFrom(r.Temperature(), 0); finite {
		t.Fatal("zero gap must never overheat")
	}
	if _, finite := cfg.TimeToThresholdFrom(r.Temperature(), -peakIT); finite {
		t.Fatal("negative gap must never overheat")
	}
	// Already at threshold.
	for s := 0; s < 301; s++ {
		r.Step(peakIT, 0, time.Second)
	}
	if d, finite := cfg.TimeToThresholdFrom(r.Temperature(), 1); !finite || d != 0 {
		t.Fatalf("overheated room: TimeToThresholdFrom = (%v, %v), want (0, true)", d, finite)
	}
}

func TestTESActivationDelayRule(t *testing.T) {
	// §V-C: "(5 minute x normal peak server power / maximum additional
	// server power)". With the default server (55 W peak normal, 90 W max
	// additional), TES must engage at 5 x 55/90 ~ 3.06 minutes.
	got := TESActivationDelay(55, 90)
	ratio := 55.0 / 90.0
	want := time.Duration(float64(5*time.Minute) * ratio)
	if math.Abs(float64(got-want)) > float64(time.Second) {
		t.Fatalf("TESActivationDelay = %v, want %v", got, want)
	}
	// Additional power equal to peak normal -> exactly the CFD budget.
	if got := TESActivationDelay(55, 55); got != CFDOutageBudget {
		t.Fatalf("equal powers: %v, want %v", got, CFDOutageBudget)
	}
	// No additional power -> effectively never.
	if got := TESActivationDelay(55, 0); got < 1000*time.Hour {
		t.Fatalf("zero additional power: %v, want huge", got)
	}
}

// Property: temperature is monotone non-decreasing under a non-negative gap
// and bounded by ambient from below under any gap sequence.
func TestTemperatureBoundsProperty(t *testing.T) {
	f := func(gaps []int32) bool {
		r, err := NewRoom(Default(peakIT))
		if err != nil {
			return false
		}
		prev := r.Temperature()
		for _, g := range gaps {
			gen := units.Watts(g)
			r.Step(gen, 0, time.Second)
			if gen >= 0 && r.Temperature() < prev {
				return false
			}
			if r.Temperature() < 25 {
				return false
			}
			prev = r.Temperature()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: TimeToThresholdFrom is consistent with Step — simulating the
// gap for the returned duration lands within one tick of the threshold.
func TestTimeToThresholdConsistencyProperty(t *testing.T) {
	f := func(gapRaw uint32) bool {
		gap := units.Watts(gapRaw%uint32(peakIT) + 1e5)
		r, err := NewRoom(Default(peakIT))
		if err != nil {
			return false
		}
		d, finite := Default(peakIT).TimeToThresholdFrom(r.Temperature(), gap)
		if !finite {
			return false
		}
		if d > time.Hour {
			return true // too slow to bother simulating
		}
		steps := int(d / time.Second)
		for i := 0; i < steps; i++ {
			r.Step(gap, 0, time.Second)
		}
		r.Step(gap, 0, time.Second) // one extra tick must cross
		return r.Overheated()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
