package ups

import (
	"fmt"
	"math"

	"dcsprint/internal/units"
)

// State is the serializable dynamic state of a battery, used by the
// simulation checkpoint codec. The capacity and power limits are included
// because Fade mutates them mid-run.
type State struct {
	// Capacity is the (possibly faded) nameplate charge at capture time.
	Capacity units.AmpHours
	// MaxDischarge and MaxRecharge are the (possibly faded) power limits.
	MaxDischarge, MaxRecharge units.Watts
	// Stored is the energy currently held.
	Stored units.Joules
	// Discharged is the lifetime wear ledger (total drained energy).
	Discharged units.Joules
	// Failed reports a dead string.
	Failed bool
}

// State captures the battery's dynamic state.
func (b *Battery) State() State {
	return State{
		Capacity:     b.cfg.Capacity,
		MaxDischarge: b.cfg.MaxDischarge,
		MaxRecharge:  b.cfg.MaxRecharge,
		Stored:       b.stored,
		Discharged:   b.discharged,
		Failed:       b.failed,
	}
}

// SetState restores a previously captured state. Stored energy must be
// finite, non-negative and within the restored capacity.
func (b *Battery) SetState(s State) error {
	if s.Capacity <= 0 || math.IsNaN(float64(s.Capacity)) {
		return fmt.Errorf("ups: restore with non-positive capacity %v Ah", float64(s.Capacity))
	}
	if s.MaxDischarge < 0 || s.MaxRecharge < 0 {
		return fmt.Errorf("ups: restore with negative power limit")
	}
	total := s.Capacity.Energy(b.cfg.BusVoltage)
	if s.Stored < 0 || s.Stored > total || math.IsNaN(float64(s.Stored)) {
		return fmt.Errorf("ups: restore with stored %v outside [0, %v]", s.Stored, total)
	}
	if s.Discharged < 0 || math.IsNaN(float64(s.Discharged)) {
		return fmt.Errorf("ups: restore with negative wear ledger %v", s.Discharged)
	}
	b.cfg.Capacity = s.Capacity
	b.cfg.MaxDischarge = s.MaxDischarge
	b.cfg.MaxRecharge = s.MaxRecharge
	b.stored = s.Stored
	b.discharged = s.Discharged
	b.failed = s.Failed
	return nil
}
