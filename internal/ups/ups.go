// Package ups models the distributed per-server UPS batteries that supply
// Phase 2 of Data Center Sprinting.
//
// The paper (§III-B, §IV-B) assumes server-level distributed UPS as in
// Kontorinis et al. (ISCA'12): each server carries a small battery (default
// 0.5 Ah, ~6 minutes at the 55 W peak-normal server power), batteries may be
// fully discharged ~10 times per month without shortening their required
// lifetime, and a coordinator chooses what fraction of a PDU group's servers
// draw from battery instead of the PDU, which directly reduces the load seen
// by the PDU-level breaker.
package ups

import (
	"fmt"
	"math"

	"dcsprint/internal/units"
)

// BatteryConfig describes one battery (or a homogeneous aggregation of
// many — capacity and power limits scale linearly).
type BatteryConfig struct {
	// Capacity is the nameplate charge.
	Capacity units.AmpHours
	// BusVoltage converts charge to energy. The paper's 0.5 Ah at a 12 V
	// server bus gives 6 Wh = 21.6 kJ per server.
	BusVoltage float64
	// MaxDischarge is the maximum output power. Zero means unlimited.
	MaxDischarge units.Watts
	// MaxRecharge is the maximum charging power. Zero means unlimited.
	MaxRecharge units.Watts
	// DischargeEfficiency is the fraction of drained stored energy that
	// reaches the load (inverter/conversion loss). Zero means 1.
	DischargeEfficiency float64
	// MinSoC is the state-of-charge floor in [0, 1). The paper's LFP
	// batteries tolerate full discharge, so the default is 0.
	MinSoC float64
}

// DefaultServerBattery returns the paper's per-server battery: 0.5 Ah at
// 12 V, able to power a whole 55 W server (and more, for sprinting servers)
// by itself.
func DefaultServerBattery() BatteryConfig {
	return BatteryConfig{
		Capacity:            0.5,
		BusVoltage:          12,
		MaxDischarge:        200, // a single sprinting server peaks near 140 W
		MaxRecharge:         30,
		DischargeEfficiency: 0.95,
	}
}

// Validate reports whether the configuration is usable.
func (c BatteryConfig) Validate() error {
	if c.Capacity <= 0 {
		return fmt.Errorf("ups: non-positive capacity %v Ah", float64(c.Capacity))
	}
	if c.BusVoltage <= 0 {
		return fmt.Errorf("ups: non-positive bus voltage %v", c.BusVoltage)
	}
	if c.MaxDischarge < 0 || c.MaxRecharge < 0 {
		return fmt.Errorf("ups: negative power limit")
	}
	if c.DischargeEfficiency < 0 || c.DischargeEfficiency > 1 {
		return fmt.Errorf("ups: discharge efficiency %v out of [0,1]", c.DischargeEfficiency)
	}
	if c.MinSoC < 0 || c.MinSoC >= 1 {
		return fmt.Errorf("ups: MinSoC %v out of [0,1)", c.MinSoC)
	}
	return nil
}

// scale returns a copy of the config with capacity and power limits
// multiplied by n (aggregating n identical batteries).
func (c BatteryConfig) scale(n int) BatteryConfig {
	out := c
	out.Capacity = c.Capacity * units.AmpHours(n)
	out.MaxDischarge = c.MaxDischarge * units.Watts(n)
	out.MaxRecharge = c.MaxRecharge * units.Watts(n)
	return out
}

// Battery is a rechargeable energy store with power limits and a
// state-of-charge floor. The zero value is not usable; construct with New
// or NewGroup.
type Battery struct {
	cfg        BatteryConfig
	stored     units.Joules // current stored energy
	discharged units.Joules // lifetime total drained, for cycle accounting
	failed     bool         // a failed string delivers and accepts nothing
}

// New returns a fully charged battery.
func New(cfg BatteryConfig) (*Battery, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Battery{cfg: cfg, stored: cfg.Capacity.Energy(cfg.BusVoltage)}, nil
}

// NewGroup returns a single battery equivalent to n identical batteries
// discharged in lockstep — the aggregation used for a PDU group of servers.
func NewGroup(n int, cfg BatteryConfig) (*Battery, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ups: non-positive group size %d", n)
	}
	return New(cfg.scale(n))
}

// TotalEnergy returns the nameplate energy.
func (b *Battery) TotalEnergy() units.Joules {
	return b.cfg.Capacity.Energy(b.cfg.BusVoltage)
}

// Stored returns the energy currently held.
func (b *Battery) Stored() units.Joules { return b.stored }

// SoC returns the state of charge in [0, 1].
func (b *Battery) SoC() float64 {
	return float64(b.stored) / float64(b.TotalEnergy())
}

// Available returns the deliverable energy: what remains above the SoC
// floor, after discharge losses.
func (b *Battery) Available() units.Joules {
	floor := units.Joules(b.cfg.MinSoC) * b.TotalEnergy()
	avail := b.stored - floor
	if avail < 0 {
		return 0
	}
	return units.Joules(float64(avail) * b.efficiency())
}

// MaxOutput returns the greatest power the battery can deliver for the next
// dt seconds given its power limit and remaining deliverable energy.
func (b *Battery) MaxOutput(dt float64) units.Watts {
	if dt <= 0 {
		return 0
	}
	p := b.Available().Over(dt)
	if b.cfg.MaxDischarge > 0 && p > b.cfg.MaxDischarge {
		p = b.cfg.MaxDischarge
	}
	return p
}

// SameMaxOutput reports whether MaxOutput answers the same on b and o for
// every dt: the two batteries share a stored energy and every limit
// MaxOutput reads. Comparing those fields one by one costs a third of what
// comparing the whole BatteryConfig does.
func (b *Battery) SameMaxOutput(o *Battery) bool {
	x, y := &b.cfg, &o.cfg
	return b.stored == o.stored && x.Capacity == y.Capacity && x.BusVoltage == y.BusVoltage &&
		x.MaxDischarge == y.MaxDischarge && x.DischargeEfficiency == y.DischargeEfficiency && x.MinSoC == y.MinSoC
}

// Lockstep reports whether b and o are in identical state: the same
// requests change them identically, and every reading answers the same on
// both. It adds to SameMaxOutput the recharge limit, the wear ledger and
// the failed flag.
func (b *Battery) Lockstep(o *Battery) bool {
	return b.SameMaxOutput(o) && b.cfg.MaxRecharge == o.cfg.MaxRecharge &&
		b.discharged == o.discharged && b.failed == o.failed
}

// Discharge drains the battery to deliver the requested power for dt
// seconds and returns the power actually delivered, which may be lower
// when the battery is empty or power-limited. Requests that are not positive deliver zero.
func (b *Battery) Discharge(request units.Watts, dt float64) units.Watts {
	if request <= 0 || dt <= 0 || b.failed {
		return 0
	}
	delivered := request
	if max := b.MaxOutput(dt); delivered > max {
		delivered = max
	}
	if delivered <= 0 {
		return 0
	}
	drain := units.Joules(float64(units.ForDuration(delivered, dt)) / b.efficiency())
	b.stored -= drain
	if b.stored < 0 {
		b.stored = 0
	}
	b.discharged += drain
	return delivered
}

// Recharge stores energy at the requested power for dt seconds and returns
// the charging power actually accepted.
func (b *Battery) Recharge(request units.Watts, dt float64) units.Watts {
	if request <= 0 || dt <= 0 || b.failed {
		return 0
	}
	accepted := request
	if b.cfg.MaxRecharge > 0 && accepted > b.cfg.MaxRecharge {
		accepted = b.cfg.MaxRecharge
	}
	room := b.TotalEnergy() - b.stored
	if need := room.Over(dt); accepted > need {
		accepted = need
	}
	if accepted <= 0 {
		return 0
	}
	b.stored += units.ForDuration(accepted, dt)
	if b.stored > b.TotalEnergy() {
		b.stored = b.TotalEnergy()
	}
	return accepted
}

// Fail kills the battery string: it holds no charge and will deliver and
// accept nothing until replaced (there is deliberately no un-fail; a
// replacement is a new Battery).
func (b *Battery) Fail() {
	b.failed = true
	b.stored = 0
}

// Failed reports whether the string has been killed by Fail.
func (b *Battery) Failed() bool { return b.failed }

// Fade multiplies the battery's capacity and power limits by frac in
// [0, 1] — capacity fade from age, temperature or cell dropout. Stored
// energy above the new capacity is lost. Fade composes: two 0.5 fades
// leave a quarter of the original capacity. A NaN frac is ignored.
func (b *Battery) Fade(frac float64) {
	if math.IsNaN(frac) {
		return
	}
	frac = units.Clamp(frac, 0, 1)
	b.cfg.Capacity = units.AmpHours(float64(b.cfg.Capacity) * frac)
	b.cfg.MaxDischarge = units.Watts(float64(b.cfg.MaxDischarge) * frac)
	b.cfg.MaxRecharge = units.Watts(float64(b.cfg.MaxRecharge) * frac)
	if b.stored > b.TotalEnergy() {
		b.stored = b.TotalEnergy()
	}
}

// MaxOutputAtSoC returns the greatest power the battery could deliver for
// the next dt seconds if its state of charge were soc — the planning view used by
// a controller that only trusts a sensed SoC, not the internal state.
func (b *Battery) MaxOutputAtSoC(soc float64, dt float64) units.Watts {
	if dt <= 0 {
		return 0
	}
	soc = units.Clamp(soc, 0, 1)
	total := b.TotalEnergy()
	avail := units.Joules(soc)*total - units.Joules(b.cfg.MinSoC)*total
	if avail < 0 {
		avail = 0
	}
	p := units.Joules(float64(avail) * b.efficiency()).Over(dt)
	if b.cfg.MaxDischarge > 0 && p > b.cfg.MaxDischarge {
		p = b.cfg.MaxDischarge
	}
	return p
}

func (b *Battery) efficiency() float64 {
	if b.cfg.DischargeEfficiency == 0 {
		return 1
	}
	return b.cfg.DischargeEfficiency
}
