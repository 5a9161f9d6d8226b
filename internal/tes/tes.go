// Package tes models the thermal energy storage tank that supplies Phase 3
// of Data Center Sprinting.
//
// A TES tank stores cold coolant (or ice). While discharging, the CRAC units
// draw cold coolant from the tank instead of the chiller, so (a) cooling can
// exceed the chiller's capacity, and (b) the chiller can be turned down —
// per Iyengar & Schmidt (cited in §V-C), up to 2/3 of the cooling power is
// saved, the remaining 1/3 going to pumps, valves and CRAC fans. The paper's
// default tank carries the full cooling load for 12 minutes at the data
// center's peak normal power (§VI-A, after Intel's TES white paper).
package tes

import (
	"fmt"
	"time"

	"dcsprint/internal/units"
)

// Config sizes a TES tank.
type Config struct {
	// HeatCapacity is the total heat the tank can absorb before it is
	// spent (cold fully consumed).
	HeatCapacity units.Joules
	// MaxRate is the maximum heat-absorption rate while discharging.
	// Zero means unlimited.
	MaxRate units.Watts
	// RechargeRate is the maximum rate at which the chiller can re-cool
	// the tank. Zero means unlimited.
	RechargeRate units.Watts
	// ChillerSavingFraction is the fraction of cooling power saved while
	// the TES carries the cooling load (paper: 2/3).
	ChillerSavingFraction float64
}

// DefaultTank returns the paper's tank for a data center with the given
// peak-normal IT power: 12 minutes of full cooling load, with a discharge
// rate generous enough to also absorb sprinting heat (2x peak normal), and
// the 2/3 chiller-power saving.
func DefaultTank(peakNormalIT units.Watts) Config {
	return Config{
		HeatCapacity:          units.ForDuration(peakNormalIT, (12 * time.Minute).Seconds()),
		MaxRate:               2 * peakNormalIT,
		RechargeRate:          peakNormalIT / 4,
		ChillerSavingFraction: 2.0 / 3.0,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.HeatCapacity <= 0 {
		return fmt.Errorf("tes: non-positive heat capacity %v", c.HeatCapacity)
	}
	if c.MaxRate < 0 || c.RechargeRate < 0 {
		return fmt.Errorf("tes: negative rate")
	}
	if c.ChillerSavingFraction < 0 || c.ChillerSavingFraction > 1 {
		return fmt.Errorf("tes: chiller saving fraction %v out of [0,1]", c.ChillerSavingFraction)
	}
	return nil
}

// Tank is a thermal store. Construct with New; the zero value is unusable.
type Tank struct {
	cfg        Config
	cold       units.Joules // remaining absorbable heat
	valveStuck bool         // a stuck valve blocks discharge, not recharge
}

// New returns a fully charged (fully cold) tank.
func New(cfg Config) (*Tank, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Tank{cfg: cfg, cold: cfg.HeatCapacity}, nil
}

// Remaining returns the heat the tank can still absorb.
func (t *Tank) Remaining() units.Joules { return t.cold }

// Capacity returns the tank's total heat capacity.
func (t *Tank) Capacity() units.Joules { return t.cfg.HeatCapacity }

// SoC returns the fraction of cold remaining in [0, 1].
func (t *Tank) SoC() float64 {
	return float64(t.cold) / float64(t.cfg.HeatCapacity)
}

// Empty reports whether the cold store is exhausted.
func (t *Tank) Empty() bool { return t.cold <= 0 }

// MaxAbsorb returns the greatest heat rate the tank can take for the next
// dt seconds.
func (t *Tank) MaxAbsorb(dt float64) units.Watts {
	if dt <= 0 || t.valveStuck {
		return 0
	}
	rate := t.cold.Over(dt)
	if t.cfg.MaxRate > 0 && rate > t.cfg.MaxRate {
		rate = t.cfg.MaxRate
	}
	return rate
}

// MaxAbsorbAtSoC returns the greatest heat rate the tank could take for the
// next dt seconds if its cold fraction were soc — the planning view used by a
// controller that only trusts a sensed level. It deliberately ignores a
// stuck valve: the controller must discover that from its telemetry, not
// from the model's internals.
func (t *Tank) MaxAbsorbAtSoC(soc float64, dt float64) units.Watts {
	if dt <= 0 {
		return 0
	}
	soc = units.Clamp(soc, 0, 1)
	rate := (units.Joules(soc) * t.cfg.HeatCapacity).Over(dt)
	if t.cfg.MaxRate > 0 && rate > t.cfg.MaxRate {
		rate = t.cfg.MaxRate
	}
	return rate
}

// SetValveStuck blocks (or frees) the discharge valve. While stuck the tank
// absorbs no heat regardless of its cold level; recharge still works (the
// chiller loop is separate plumbing).
func (t *Tank) SetValveStuck(stuck bool) { t.valveStuck = stuck }

// ValveStuck reports whether the discharge valve is blocked.
func (t *Tank) ValveStuck() bool { return t.valveStuck }

// Drain removes cold directly (a tank leak), bypassing the valve and rate
// limits. Negative amounts are ignored.
func (t *Tank) Drain(heat units.Joules) {
	if heat <= 0 {
		return
	}
	t.cold -= heat
	if t.cold < 0 {
		t.cold = 0
	}
}

// Discharge absorbs heat at up to the requested rate for dt seconds and
// returns the rate actually absorbed.
func (t *Tank) Discharge(heatRate units.Watts, dt float64) units.Watts {
	if heatRate <= 0 || dt <= 0 {
		return 0
	}
	absorbed := heatRate
	if max := t.MaxAbsorb(dt); absorbed > max {
		absorbed = max
	}
	if absorbed <= 0 {
		return 0
	}
	t.cold -= units.ForDuration(absorbed, dt)
	if t.cold < 0 {
		t.cold = 0
	}
	return absorbed
}

// Recharge re-cools the tank at up to the requested rate for dt seconds
// (the chiller producing surplus cold coolant) and returns the rate
// actually stored.
func (t *Tank) Recharge(rate units.Watts, dt float64) units.Watts {
	if rate <= 0 || dt <= 0 {
		return 0
	}
	accepted := rate
	if t.cfg.RechargeRate > 0 && accepted > t.cfg.RechargeRate {
		accepted = t.cfg.RechargeRate
	}
	room := t.cfg.HeatCapacity - t.cold
	if need := room.Over(dt); accepted > need {
		accepted = need
	}
	if accepted <= 0 {
		return 0
	}
	t.cold += units.ForDuration(accepted, dt)
	if t.cold > t.cfg.HeatCapacity {
		t.cold = t.cfg.HeatCapacity
	}
	return accepted
}

// ChillerPowerWhileDischarging returns the chiller-side electrical power
// while the TES carries the cooling load, given the normal cooling power:
// the saving fraction is shed, the rest (pumps, valves, CRAC fans) remains.
func (t *Tank) ChillerPowerWhileDischarging(normalCoolingPower units.Watts) units.Watts {
	if normalCoolingPower <= 0 {
		return 0
	}
	return units.Watts((1 - t.cfg.ChillerSavingFraction) * float64(normalCoolingPower))
}
