package core

import (
	"math"
	"time"

	"dcsprint/internal/breaker"
	"dcsprint/internal/cooling"
	"dcsprint/internal/power"
	"dcsprint/internal/tes"
	"dcsprint/internal/units"
)

// CBExtraBudget returns the additional energy a breaker can deliver above
// its rating under the controller's reserve policy, in closed form.
//
// The policy keeps the remaining-time-to-trip at the reserve R: the overload
// ratio satisfies (1 - acc) x T(r) = R. With the inverse-square curve
// T(r) = A/(r-1)^2 this gives r(t) - 1 = sqrt(A(1-acc)/R), and since
// d(acc)/dt = 1/T(r) = (1-acc)/R the accumulator relaxes exponentially and
//
//	Integral (r-1) dt  =  2 x sqrt(A x R x (1 - acc0))
//
// so the deliverable extra energy is that integral times the rating. For
// other curve exponents the integral is evaluated numerically.
//
// The estimate deliberately ignores breaker cool-down: time spent at or
// below the rating slowly restores thermal budget, so a real sprint can
// extract somewhat more than this. Under-estimating the budget only makes
// the Heuristic strategy end sprints early, never trips a breaker.
func CBExtraBudget(b *breaker.Breaker, reserve time.Duration) units.Joules {
	if b.Tripped() || reserve <= 0 {
		return 0
	}
	headroom := 1 - b.Accumulator()
	if headroom <= 0 {
		return 0
	}
	c := b.Curve
	r := reserve.Seconds()
	if c.B == 2 {
		return units.Joules(2 * math.Sqrt(c.A*r*headroom) * float64(b.Rated))
	}
	// Numeric fallback: integrate d(acc)/dt = (1-acc)/R with
	// r(t)-1 = (A(1-acc)/R)^(1/B) until the overload becomes negligible.
	acc := b.Accumulator()
	var integral float64
	const dt = 1.0
	for t := 0.0; t < 100*r; t += dt {
		over := math.Pow(c.A*(1-acc)/r, 1/c.B)
		if over < 1e-4 {
			break
		}
		integral += over * dt
		acc += (1 - acc) / r * dt
	}
	return units.Joules(integral * float64(b.Rated))
}

// TESElectricBudget converts the tank's remaining heat capacity into the
// electrical energy it frees: while the TES carries the cooling load the
// chiller sheds its saving fraction of the normal cooling power, for as
// long as the remaining cold lasts at the facility's design heat load.
func TESElectricBudget(tank *tes.Tank, coolCfg cooling.Config) units.Joules {
	if tank == nil || tank.Empty() {
		return 0
	}
	designHeat := float64(coolCfg.ChillerHeatCapacity())
	if designHeat <= 0 {
		return 0
	}
	carrySeconds := float64(tank.Remaining()) / designHeat
	saved := float64(coolCfg.NormalCoolingPower()) - float64(tank.ChillerPowerWhileDischarging(coolCfg.NormalCoolingPower()))
	return units.Joules(saved * carrySeconds)
}

// EstimateBudget totals the additional-energy budget for a sprint in its
// current state: the PDU-level breaker tolerance, the deliverable UPS
// energy, and the electrical savings unlocked by the TES (§V-A eq. 3,
// "sum of stored energy and the additional energy delivered by overloading
// the CBs"). The DC-level breaker tolerance is not double-counted: server
// power flows through both levels, and the PDU level is the binding one for
// server power, while the DC-level tolerance is consumed by cooling
// overhead. The first group of each of the tree's lockstep runs
// (power.Tree.Runs) is read once and added for every member, in group
// order.
func EstimateBudget(tree *power.Tree, tank *tes.Tank, coolCfg cooling.Config, reserve time.Duration) units.Joules {
	var total units.Joules
	runs := tree.Runs()
	for g := 0; g < len(runs); {
		b, u := tree.Run(g)
		cb, avail := CBExtraBudget(b, reserve), u.Available()
		for end := runs[g]; g < end; g++ {
			total += cb
			total += avail
		}
	}
	total += TESElectricBudget(tank, coolCfg)
	return total
}
