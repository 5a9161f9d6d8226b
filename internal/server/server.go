// Package server models the many-core servers of a dark-silicon data
// center: the chip power model, the core-count performance model and the
// mapping between workload demand and active cores.
//
// The defaults follow the paper's simulation setup (§VI-A): each server is a
// 48-core Intel SCC-style chip drawing 125 W fully utilized (2.5 W per fully
// utilized core plus 5 W with all cores inactive) and 20 W of non-CPU power.
// Normally only 12 cores are active, so the peak normal server power is
// 20 + 5 + 12x2.5 = 55 W, and the maximum sprinting degree is 48/12 = 4.
//
// Throughput is concave in the number of active cores — the paper's
// SPECjbb2005 observation that per-core throughput falls as cores are added,
// which is what makes constrained sprinting degrees more power-efficient
// than Greedy for long bursts.
package server

import (
	"fmt"
	"math"

	"dcsprint/internal/units"
)

// Config describes one server model.
type Config struct {
	// TotalCores is the number of cores on the chip (dark + active).
	TotalCores int
	// NormalCores is the number of cores active outside sprinting.
	NormalCores int
	// CorePower is the power of one fully utilized core.
	CorePower units.Watts
	// ChipIdlePower is the chip power with every core inactive.
	ChipIdlePower units.Watts
	// NonCPUPower is the constant power of the other server components.
	NonCPUPower units.Watts
	// PerfExponent is alpha in throughput(n) ∝ n^alpha, 0 < alpha <= 1.
	// alpha < 1 encodes decreasing per-core throughput.
	PerfExponent float64
}

// Default returns the paper's 48-core SCC-style server.
func Default() Config {
	return Config{
		TotalCores:    48,
		NormalCores:   12,
		CorePower:     2.5,
		ChipIdlePower: 5,
		NonCPUPower:   20,
		PerfExponent:  0.75,
	}
}

// Validate reports whether the configuration is physically meaningful.
func (c Config) Validate() error {
	if c.TotalCores <= 0 {
		return fmt.Errorf("server: non-positive core count %d", c.TotalCores)
	}
	if c.NormalCores <= 0 || c.NormalCores > c.TotalCores {
		return fmt.Errorf("server: normal cores %d out of (0, %d]", c.NormalCores, c.TotalCores)
	}
	if c.CorePower <= 0 {
		return fmt.Errorf("server: non-positive core power %v", c.CorePower)
	}
	if c.ChipIdlePower < 0 || c.NonCPUPower < 0 {
		return fmt.Errorf("server: negative idle or non-CPU power")
	}
	if c.PerfExponent <= 0 || c.PerfExponent > 1 {
		return fmt.Errorf("server: perf exponent %v out of (0, 1]", c.PerfExponent)
	}
	return nil
}

// MaxDegree returns the maximum sprinting degree (total/normal cores).
func (c Config) MaxDegree() float64 {
	return float64(c.TotalCores) / float64(c.NormalCores)
}

// Degree returns the sprinting degree of running n active cores.
func (c Config) Degree(n int) float64 {
	return float64(n) / float64(c.NormalCores)
}

// CoresForDegree returns the active-core count for a sprinting-degree upper
// bound, rounded down (a bound must not be exceeded) and clamped to
// [NormalCores, TotalCores].
func (c Config) CoresForDegree(degree float64) int {
	n := int(math.Floor(degree * float64(c.NormalCores)))
	if n < c.NormalCores {
		n = c.NormalCores
	}
	if n > c.TotalCores {
		n = c.TotalCores
	}
	return n
}

// Throughput returns the server throughput with n active, fully utilized
// cores, normalized so Throughput(NormalCores) = 1.
func (c Config) Throughput(n int) float64 {
	if n <= 0 {
		return 0
	}
	if n > c.TotalCores {
		n = c.TotalCores
	}
	return math.Pow(float64(n)/float64(c.NormalCores), c.PerfExponent)
}

// MaxThroughput returns the throughput with every core active.
func (c Config) MaxThroughput() float64 { return c.Throughput(c.TotalCores) }

// CoresForThroughput returns the fewest active cores whose capacity reaches
// the demanded throughput (normalized as in Throughput). Demands beyond the
// chip's maximum return TotalCores.
func (c Config) CoresForThroughput(demand float64) int {
	if demand <= 0 {
		return 0
	}
	// The small epsilon absorbs floating-point error so that a demand of
	// exactly Throughput(n) maps back to n rather than n+1.
	n := int(math.Ceil(float64(c.NormalCores)*math.Pow(demand, 1/c.PerfExponent) - 1e-9))
	if n > c.TotalCores {
		return c.TotalCores
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Power returns the server power with n active cores at the given
// utilization in [0, 1] (fraction of the active cores' capacity in use).
func (c Config) Power(n int, utilization float64) units.Watts {
	if n < 0 {
		n = 0
	}
	if n > c.TotalCores {
		n = c.TotalCores
	}
	u := units.Clamp(utilization, 0, 1)
	return c.NonCPUPower + c.ChipIdlePower + c.CorePower*units.Watts(float64(n)*u)
}

// PowerAtDemand returns the server power with n active cores serving the
// given normalized throughput demand, along with the throughput actually
// delivered (capped by the n-core capacity). Utilization is derived from
// the delivered throughput via the concave performance model.
func (c Config) PowerAtDemand(n int, demand float64) (units.Watts, float64) {
	if n <= 0 || demand <= 0 {
		return c.Power(n, 0), 0
	}
	capacity := c.Throughput(n)
	delivered := demand
	if delivered > capacity {
		delivered = capacity
	}
	// Equivalent fully-utilized cores needed for the delivered throughput.
	eq := float64(c.NormalCores) * math.Pow(delivered, 1/c.PerfExponent)
	util := units.Clamp(eq/float64(n), 0, 1)
	return c.Power(n, util), delivered
}

// PeakNormalPower returns the peak server power without sprinting
// (all normal cores fully utilized) — 55 W with the defaults.
func (c Config) PeakNormalPower() units.Watts {
	return c.Power(c.NormalCores, 1)
}

// PeakSprintPower returns the peak server power with every core active and
// fully utilized — 145 W with the defaults.
func (c Config) PeakSprintPower() units.Watts {
	return c.Power(c.TotalCores, 1)
}

// MaxAdditionalPower returns the extra per-server power sprinting can add
// over the peak normal power.
func (c Config) MaxAdditionalPower() units.Watts {
	return c.PeakSprintPower() - c.PeakNormalPower()
}

// DemandForPower returns the largest normalized demand n active cores can
// serve within a per-server power budget — the inverse of PowerAtDemand,
// used for load shedding when even the normal operating point exceeds the
// deliverable power. A budget below the idle floor returns 0.
func (c Config) DemandForPower(n int, budget units.Watts) float64 {
	if n <= 0 {
		return 0
	}
	if n > c.TotalCores {
		n = c.TotalCores
	}
	eq := float64(budget-c.NonCPUPower-c.ChipIdlePower) / float64(c.CorePower)
	if eq <= 0 {
		return 0
	}
	if eq > float64(n) {
		eq = float64(n)
	}
	return math.Pow(eq/float64(c.NormalCores), c.PerfExponent)
}
