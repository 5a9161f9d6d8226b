package tes

import (
	"fmt"
	"math"

	"dcsprint/internal/units"
)

// State is the serializable dynamic state of a tank, used by the simulation
// checkpoint codec.
type State struct {
	// Cold is the remaining absorbable heat.
	Cold units.Joules
	// ValveStuck reports a blocked discharge valve.
	ValveStuck bool
}

// State captures the tank's dynamic state.
func (t *Tank) State() State {
	return State{Cold: t.cold, ValveStuck: t.valveStuck}
}

// SetState restores a previously captured state. The cold level must be
// finite, non-negative and within the tank's capacity.
func (t *Tank) SetState(s State) error {
	if s.Cold < 0 || s.Cold > t.cfg.HeatCapacity || math.IsNaN(float64(s.Cold)) {
		return fmt.Errorf("tes: restore with cold %v outside [0, %v]", s.Cold, t.cfg.HeatCapacity)
	}
	t.cold = s.Cold
	t.valveStuck = s.ValveStuck
	return nil
}
