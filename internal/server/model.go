package server

import (
	"math"

	"dcsprint/internal/units"
)

// Model wraps a Config with lookup tables for the hot demand→cores→power
// mappings. Core counts range over the tiny integer domain [0, TotalCores],
// so Throughput and the power of n saturated cores (demand at or beyond
// their capacity, which no longer depends on the demand) are precomputed
// once. The only remaining transcendental term is demand^(1/alpha) for a
// sub-capacity demand: DemandPow computes it, and callers that evaluate
// many core counts at one demand compute it once and pass it to
// CoresForThroughputPow and PowerAtDemandPow.
//
// A Model is read-only after NewModel. Every method returns the identical
// float64 the Config methods would compute, so results are bit-for-bit
// unchanged.
type Model struct {
	Config

	invAlpha   float64       // 1/PerfExponent, as Config methods compute it
	throughput []float64     // Throughput(n) for n in [0, TotalCores]
	powerAtCap []units.Watts // PowerAtDemand(n, Throughput(n)) for n in [1, TotalCores]
	eqAtMax    float64       // NormalCores * Throughput(TotalCores)^invAlpha
}

// NewModel precomputes the lookup tables for a validated Config.
func NewModel(c Config) *Model {
	m := &Model{
		Config:     c,
		invAlpha:   1 / c.PerfExponent,
		throughput: make([]float64, c.TotalCores+1),
		powerAtCap: make([]units.Watts, c.TotalCores+1),
	}
	for n := 1; n <= c.TotalCores; n++ {
		m.throughput[n] = c.Throughput(n)
		eq := float64(c.NormalCores) * math.Pow(m.throughput[n], m.invAlpha)
		m.powerAtCap[n] = m.Power(n, units.Clamp(eq/float64(n), 0, 1))
		m.eqAtMax = eq
	}
	return m
}

// DemandPow returns demand^(1/PerfExponent), the term CoresForThroughputPow
// and PowerAtDemandPow take precomputed.
func (m *Model) DemandPow(demand float64) float64 {
	return math.Pow(demand, m.invAlpha)
}

// Throughput is the memoized Config.Throughput.
func (m *Model) Throughput(n int) float64 {
	if n <= 0 {
		return 0
	}
	if n > m.TotalCores {
		n = m.TotalCores
	}
	return m.throughput[n]
}

// CoresForThroughputPow is Config.CoresForThroughput with
// pow = DemandPow(demand) supplied by the caller.
func (m *Model) CoresForThroughputPow(demand, pow float64) int {
	if demand <= 0 {
		return 0
	}
	n := int(math.Ceil(float64(m.NormalCores)*pow - 1e-9))
	if n > m.TotalCores {
		return m.TotalCores
	}
	if n < 1 {
		n = 1
	}
	return n
}

// PowerAtDemand is the memoized Config.PowerAtDemand.
func (m *Model) PowerAtDemand(n int, demand float64) (units.Watts, float64) {
	return m.PowerAtDemandPow(n, demand, m.DemandPow(demand))
}

// PowerAtDemandPow is PowerAtDemand with pow = DemandPow(demand) supplied
// by the caller.
func (m *Model) PowerAtDemandPow(n int, demand, pow float64) (units.Watts, float64) {
	if n <= 0 || demand <= 0 {
		return m.Power(n, 0), 0
	}
	idx := n
	if idx > m.TotalCores {
		idx = m.TotalCores
	}
	if capacity := m.throughput[idx]; demand >= capacity {
		// At (or beyond) capacity the operating point depends only on n;
		// the table entries were built with the same expressions Config
		// uses. Config divides the equivalent-core term by the caller's n,
		// unclamped, so a count beyond the chip misses the table.
		if n == idx {
			return m.powerAtCap[n], capacity
		}
		return m.Power(n, units.Clamp(m.eqAtMax/float64(n), 0, 1)), capacity
	}
	return m.Power(n, units.Clamp(float64(m.NormalCores)*pow/float64(n), 0, 1)), demand
}
