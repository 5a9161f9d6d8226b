package breaker

import (
	"fmt"
	"math"

	"dcsprint/internal/units"
)

// State is the serializable dynamic state of a breaker, used by the
// simulation checkpoint codec. Rated is included because fault injection can
// derate a breaker mid-run.
type State struct {
	// Rated is the (possibly derated) rating at capture time.
	Rated units.Watts
	// Acc is the thermal accumulator in [0, 1].
	Acc float64
	// Tripped reports whether the breaker has opened.
	Tripped bool
	// Load is the load observed by the most recent Step.
	Load units.Watts
}

// State captures the breaker's dynamic state.
func (b *Breaker) State() State {
	return State{Rated: b.Rated, Acc: b.acc, Tripped: b.tripped, Load: b.load}
}

// SetState restores a previously captured state. The rating must stay
// positive and the accumulator within [0, 1]; a corrupt snapshot errors
// rather than producing an unphysical breaker.
func (b *Breaker) SetState(s State) error {
	if s.Rated <= 0 || math.IsNaN(float64(s.Rated)) {
		return fmt.Errorf("breaker %s: restore with non-positive rating %v", b.Name, s.Rated)
	}
	if s.Acc < 0 || s.Acc > 1 || math.IsNaN(s.Acc) {
		return fmt.Errorf("breaker %s: restore with accumulator %v outside [0,1]", b.Name, s.Acc)
	}
	b.Rated = s.Rated
	b.acc = s.Acc
	b.tripped = s.Tripped
	b.load = s.Load
	return nil
}
