package server

import (
	"math"
	"testing"
	"testing/quick"

	"dcsprint/internal/units"
)

func TestDefaultMatchesPaper(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("Default invalid: %v", err)
	}
	// §VI-A: 48-core chip consumes 125 W fully utilized, 5 W all-dark,
	// 2.5 W per core; non-CPU power 20 W; 12 normal cores -> 55 W peak
	// normal server power.
	if got := c.Power(48, 1) - c.NonCPUPower; got != 125 {
		t.Errorf("fully utilized chip power = %v, want 125 W", got)
	}
	if got := c.PeakNormalPower(); got != 55 {
		t.Errorf("peak normal server power = %v, want 55 W", got)
	}
	if got := c.PeakSprintPower(); got != 145 {
		t.Errorf("peak sprint server power = %v, want 145 W", got)
	}
	if got := c.MaxAdditionalPower(); got != 90 {
		t.Errorf("max additional power = %v, want 90 W", got)
	}
	if got := c.MaxDegree(); got != 4 {
		t.Errorf("max degree = %v, want 4", got)
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"default", func(c *Config) {}, true},
		{"zero cores", func(c *Config) { c.TotalCores = 0 }, false},
		{"normal > total", func(c *Config) { c.NormalCores = 100 }, false},
		{"zero normal", func(c *Config) { c.NormalCores = 0 }, false},
		{"zero core power", func(c *Config) { c.CorePower = 0 }, false},
		{"negative idle", func(c *Config) { c.ChipIdlePower = -1 }, false},
		{"negative non-CPU", func(c *Config) { c.NonCPUPower = -1 }, false},
		{"alpha 0", func(c *Config) { c.PerfExponent = 0 }, false},
		{"alpha > 1", func(c *Config) { c.PerfExponent = 1.1 }, false},
		{"alpha 1 (linear)", func(c *Config) { c.PerfExponent = 1 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := Default()
			tt.mut(&c)
			if err := c.Validate(); (err == nil) != tt.ok {
				t.Fatalf("Validate = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestThroughputNormalization(t *testing.T) {
	c := Default()
	if got := c.Throughput(12); got != 1 {
		t.Fatalf("Throughput(normal) = %v, want 1", got)
	}
	if got := c.Throughput(0); got != 0 {
		t.Fatalf("Throughput(0) = %v, want 0", got)
	}
	if got := c.Throughput(-3); got != 0 {
		t.Fatalf("Throughput(-3) = %v, want 0", got)
	}
	// Clamped to the chip.
	if got, want := c.Throughput(100), c.Throughput(48); got != want {
		t.Fatalf("Throughput(100) = %v, want clamp to %v", got, want)
	}
	// 48 cores: (48/12)^0.75 = 4^0.75 ~ 2.83 — the sub-linear speedup the
	// paper's SPECjbb per-core-throughput observation implies.
	if got := c.MaxThroughput(); math.Abs(got-math.Pow(4, 0.75)) > 1e-12 {
		t.Fatalf("MaxThroughput = %v", got)
	}
}

func TestPerCoreThroughputDecreases(t *testing.T) {
	// The paper's SPECjbb2005 observation: per-core throughput decreases
	// as cores increase, so lower sprinting degrees are more efficient.
	c := Default()
	prev := math.Inf(1)
	for n := 1; n <= 48; n++ {
		pc := c.Throughput(n) / float64(n)
		if pc >= prev {
			t.Fatalf("per-core throughput not strictly decreasing at n=%d: %v >= %v", n, pc, prev)
		}
		prev = pc
	}
}

func TestCoresForThroughputInvertsThroughput(t *testing.T) {
	c := Default()
	for n := 1; n <= 48; n++ {
		demand := c.Throughput(n)
		if got := c.CoresForThroughput(demand); got != n {
			t.Fatalf("CoresForThroughput(Throughput(%d)) = %d", n, got)
		}
	}
	if got := c.CoresForThroughput(0); got != 0 {
		t.Fatalf("CoresForThroughput(0) = %d, want 0", got)
	}
	if got := c.CoresForThroughput(-1); got != 0 {
		t.Fatalf("CoresForThroughput(-1) = %d, want 0", got)
	}
	// Demand beyond the chip's reach saturates at TotalCores.
	if got := c.CoresForThroughput(100); got != 48 {
		t.Fatalf("CoresForThroughput(100) = %d, want 48", got)
	}
	// Tiny positive demand still needs one core.
	if got := c.CoresForThroughput(1e-9); got != 1 {
		t.Fatalf("CoresForThroughput(eps) = %d, want 1", got)
	}
}

func TestCoresForDegree(t *testing.T) {
	c := Default()
	tests := []struct {
		degree float64
		want   int
	}{
		{1, 12},
		{2, 24},
		{4, 48},
		{10, 48},  // clamped up
		{0.5, 12}, // never below normal
		{1.99, 23},
		{3.333, 39},
	}
	for _, tt := range tests {
		if got := c.CoresForDegree(tt.degree); got != tt.want {
			t.Errorf("CoresForDegree(%v) = %d, want %d", tt.degree, got, tt.want)
		}
	}
}

func TestDegree(t *testing.T) {
	c := Default()
	if got := c.Degree(12); got != 1 {
		t.Errorf("Degree(12) = %v", got)
	}
	if got := c.Degree(48); got != 4 {
		t.Errorf("Degree(48) = %v", got)
	}
}

func TestPower(t *testing.T) {
	c := Default()
	tests := []struct {
		name string
		n    int
		util float64
		want units.Watts
	}{
		{"idle chip", 0, 0, 25},
		{"normal full", 12, 1, 55},
		{"normal half", 12, 0.5, 40},
		{"sprint full", 48, 1, 145},
		{"clamped cores", 100, 1, 145},
		{"negative cores", -5, 1, 25},
		{"util clamped high", 12, 2, 55},
		{"util clamped low", 12, -1, 25},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := c.Power(tt.n, tt.util); got != tt.want {
				t.Fatalf("Power(%d, %v) = %v, want %v", tt.n, tt.util, got, tt.want)
			}
		})
	}
}

func TestPowerAtDemand(t *testing.T) {
	c := Default()
	// Demand 1.0 on 12 cores: fully utilized, delivers 1.0.
	p, d := c.PowerAtDemand(12, 1)
	if p != 55 || d != 1 {
		t.Fatalf("PowerAtDemand(12, 1) = (%v, %v), want (55, 1)", p, d)
	}
	// Demand above capacity is capped.
	p, d = c.PowerAtDemand(12, 3)
	if p != 55 || d != 1 {
		t.Fatalf("PowerAtDemand(12, 3) = (%v, %v), want (55, 1)", p, d)
	}
	// Demand 1.0 on 24 cores: under-utilized — power must be below the
	// 24-core full power but above the idle floor, and deliver 1.0.
	p, d = c.PowerAtDemand(24, 1)
	if d != 1 {
		t.Fatalf("delivered = %v, want 1", d)
	}
	if p >= c.Power(24, 1) || p <= c.Power(24, 0) {
		t.Fatalf("PowerAtDemand(24, 1) = %v, want within (%v, %v)", p, c.Power(24, 0), c.Power(24, 1))
	}
	// Because of concavity, serving demand 1.0 on 24 cores costs more
	// equivalent-core power than on 12 cores (12 cores fully utilized):
	// eq = 12 * 1^(1/alpha) = 12 -> same core power, but spread on 24.
	if eq := c.Power(12, 1); p != eq {
		t.Logf("24-core power %v vs 12-core %v (equal equivalent cores)", p, eq)
	}
	// Zero and negative demand.
	p, d = c.PowerAtDemand(12, 0)
	if d != 0 || p != c.Power(12, 0) {
		t.Fatalf("PowerAtDemand(12, 0) = (%v, %v)", p, d)
	}
	p, d = c.PowerAtDemand(0, 1)
	if d != 0 || p != c.Power(0, 0) {
		t.Fatalf("PowerAtDemand(0, 1) = (%v, %v)", p, d)
	}
}

// Property: more active cores never decrease throughput, and the marginal
// throughput of each added core decreases while its marginal power (2.5 W)
// is constant — the paper's power-efficiency argument for constraining the
// sprinting degree.
func TestMonotonicityProperties(t *testing.T) {
	c := Default()
	f := func(a, b uint8) bool {
		m, n := int(a)%48+1, int(b)%48+1
		if m > n {
			m, n = n, m
		}
		if c.Throughput(m) > c.Throughput(n) {
			return false
		}
		if m == n || n >= c.TotalCores {
			return true
		}
		marginalM := c.Throughput(m+1) - c.Throughput(m)
		marginalN := c.Throughput(n+1) - c.Throughput(n)
		return marginalM >= marginalN-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: PowerAtDemand never exceeds full power for the core count and
// never delivers more than capacity or demand.
func TestPowerAtDemandBoundsProperty(t *testing.T) {
	c := Default()
	f := func(nRaw uint8, demandRaw uint16) bool {
		n := int(nRaw) % 49
		demand := float64(demandRaw) / 1000 // 0..65
		p, d := c.PowerAtDemand(n, demand)
		if p < 0 || p > c.Power(n, 1)+1e-9 {
			return false
		}
		if d > demand+1e-12 || d > c.Throughput(n)+1e-12 {
			return false
		}
		return d >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDemandForPowerInvertsPowerAtDemand(t *testing.T) {
	c := Default()
	for _, demand := range []float64{0.2, 0.5, 0.8, 1.0} {
		power, delivered := c.PowerAtDemand(12, demand)
		if delivered != demand {
			t.Fatalf("setup: delivered %v for demand %v", delivered, demand)
		}
		if got := c.DemandForPower(12, power); math.Abs(got-demand) > 1e-9 {
			t.Fatalf("DemandForPower(12, %v) = %v, want %v", power, got, demand)
		}
	}
	// Below the idle floor nothing can be served.
	if got := c.DemandForPower(12, 20); got != 0 {
		t.Fatalf("sub-idle budget served %v", got)
	}
	if got := c.DemandForPower(0, 100); got != 0 {
		t.Fatalf("zero cores served %v", got)
	}
	// A huge budget saturates at the core count's capacity.
	if got := c.DemandForPower(12, 10000); math.Abs(got-1) > 1e-12 {
		t.Fatalf("saturated demand = %v, want 1", got)
	}
}
