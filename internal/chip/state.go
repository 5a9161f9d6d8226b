package chip

import (
	"fmt"
	"math"

	"dcsprint/internal/units"
)

// State is the serializable dynamic state of a chip thermal package, used by
// the simulation checkpoint codec.
type State struct {
	// Melted is the latent heat absorbed so far.
	Melted units.Joules
}

// State captures the chip's dynamic state.
func (t *Thermal) State() State { return State{Melted: t.melted} }

// SetState restores a previously captured state. The melted amount must be
// finite, non-negative and within the PCM capacity.
func (t *Thermal) SetState(s State) error {
	if s.Melted < 0 || s.Melted > t.cfg.PCMCapacity || math.IsNaN(float64(s.Melted)) {
		return fmt.Errorf("chip: restore with melted %v outside [0, %v]", s.Melted, t.cfg.PCMCapacity)
	}
	t.melted = s.Melted
	return nil
}
