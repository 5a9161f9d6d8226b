package server

import (
	"math/rand"
	"testing"
)

// TestModelMatchesConfig pins the memoized Model to the Config methods
// bit-for-bit: same cores, same delivered throughput, same watts, for
// integer core counts across the full chip and a dense sweep of demands
// including the exact capacity values where the capped/uncapped branch
// boundary sits.
func TestModelMatchesConfig(t *testing.T) {
	configs := []Config{
		Default(),
		{TotalCores: 64, NormalCores: 16, CorePower: 3, ChipIdlePower: 6, NonCPUPower: 25, PerfExponent: 0.6},
		{TotalCores: 8, NormalCores: 2, CorePower: 1.5, ChipIdlePower: 1, NonCPUPower: 4, PerfExponent: 1},
	}
	rng := rand.New(rand.NewSource(42))
	for _, cfg := range configs {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("bad test config: %v", err)
		}
		m := NewModel(cfg)
		demands := []float64{-1, 0, 1e-12, 0.5, 1, cfg.MaxThroughput(), cfg.MaxThroughput() * 2}
		for n := 0; n <= cfg.TotalCores+2; n++ {
			demands = append(demands, cfg.Throughput(n)) // branch boundaries
		}
		for i := 0; i < 500; i++ {
			demands = append(demands, rng.Float64()*cfg.MaxThroughput()*1.2)
		}
		for _, d := range demands {
			if got, want := m.CoresForThroughputPow(d, m.DemandPow(d)), cfg.CoresForThroughput(d); got != want {
				t.Fatalf("CoresForThroughput(%v): model %d config %d", d, got, want)
			}
			for n := -1; n <= cfg.TotalCores+2; n++ {
				if got, want := m.Throughput(n), cfg.Throughput(n); got != want {
					t.Fatalf("Throughput(%d): model %v config %v", n, got, want)
				}
				gp, gd := m.PowerAtDemand(n, d)
				wp, wd := cfg.PowerAtDemand(n, d)
				if gp != wp || gd != wd {
					t.Fatalf("PowerAtDemand(%d, %v): model (%v, %v) config (%v, %v)", n, d, gp, gd, wp, wd)
				}
			}
		}
	}
}

func BenchmarkConfigPowerAtDemand(b *testing.B) {
	cfg := Default()
	for i := 0; i < b.N; i++ {
		cfg.PowerAtDemand(24, 1.5)
	}
}

func BenchmarkModelPowerAtDemand(b *testing.B) {
	m := NewModel(Default())
	for i := 0; i < b.N; i++ {
		m.PowerAtDemand(24, 1.5)
	}
}
