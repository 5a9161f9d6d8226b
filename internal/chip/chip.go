// Package chip models the chip-level sprinting substrate Data Center
// Sprinting builds on (Raghavan et al., HPCA'12 / ASPLOS'13): a many-core
// die whose heatsink can only sustain the normal-core power, with a
// phase-change material (PCM) package that buffers the excess heat of a
// sprint. While the PCM has unmelted mass, the chip may exceed its
// sustainable power; once the PCM is fully melted the chip must return to
// normal operation, and the PCM refreezes while the chip runs cool.
//
// The paper's §IV makes this the controller's prerequisite: "the
// prerequisite is that the chip-level sprinting is already safely enabled.
// If the chip-level sprinting can be no longer sustained, we also finish
// Data Center Sprinting." The data-center controller therefore consults
// this model for the largest core count the chips can still sustain.
package chip

import (
	"fmt"
	"time"

	"dcsprint/internal/units"
)

// Config sizes the chip thermal package.
type Config struct {
	// SustainablePower is the chip power the heatsink removes
	// continuously — the normal-core operating point.
	SustainablePower units.Watts
	// PCMCapacity is the latent heat the phase-change package absorbs
	// before the chip must stop sprinting.
	PCMCapacity units.Joules
	// RefreezeRate is the heat extraction available for re-solidifying
	// the PCM while the chip runs below its sustainable power. Zero means
	// "whatever headroom the heatsink has".
	RefreezeRate units.Watts
}

// Default sizes the package for the paper's server chip: the heatsink
// carries the 12-core normal point (35 W chip power), and the PCM buffers a
// full 48-core sprint (125 W, i.e. 90 W excess) for 30 minutes — server
// packages are provisioned far beyond the mobile parts of the original
// chip-sprinting work, since §IV assumes chip sprints spanning the whole
// data-center sprint.
func Default() Config {
	const excess = 90 // W above sustainable at a full sprint
	return Config{
		SustainablePower: 35,
		PCMCapacity:      units.ForDuration(excess, (30 * time.Minute).Seconds()),
		RefreezeRate:     20,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.SustainablePower <= 0 {
		return fmt.Errorf("chip: non-positive sustainable power %v", c.SustainablePower)
	}
	if c.PCMCapacity < 0 {
		return fmt.Errorf("chip: negative PCM capacity")
	}
	if c.RefreezeRate < 0 {
		return fmt.Errorf("chip: negative refreeze rate")
	}
	return nil
}

// Thermal tracks one chip's PCM state. All chips in the homogeneous
// facility share it (they sprint in lockstep per PDU group; the model
// tracks the hottest).
type Thermal struct {
	cfg    Config
	melted units.Joules // latent heat absorbed so far
}

// New returns a chip with fully solid PCM.
func New(cfg Config) (*Thermal, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Thermal{cfg: cfg}, nil
}

// Headroom returns the latent-heat budget remaining.
func (t *Thermal) Headroom() units.Joules { return t.cfg.PCMCapacity - t.melted }

// Exhausted reports whether the PCM is fully melted.
func (t *Thermal) Exhausted() bool { return t.Headroom() <= 0 }

// SustainablePower returns the continuous operating point.
func (t *Thermal) SustainablePower() units.Watts { return t.cfg.SustainablePower }

// MaxPower returns the largest chip power sustainable for the next dt:
// the heatsink point plus whatever the remaining PCM can absorb over dt.
func (t *Thermal) MaxPower(dt time.Duration) units.Watts {
	if dt <= 0 {
		return t.cfg.SustainablePower
	}
	return t.cfg.SustainablePower + t.Headroom().Over(dt.Seconds())
}

// Step advances the chip by dt at the given chip power. Power above the
// sustainable point melts PCM; power below it refreezes PCM at up to the
// refreeze rate (bounded by the actual headroom the heatsink has).
func (t *Thermal) Step(chipPower units.Watts, dt time.Duration) {
	if dt <= 0 {
		return
	}
	excess := chipPower - t.cfg.SustainablePower
	if excess > 0 {
		t.melted += units.ForDuration(excess, dt.Seconds())
		if t.melted > t.cfg.PCMCapacity {
			t.melted = t.cfg.PCMCapacity
		}
		return
	}
	refreeze := -excess // heatsink headroom
	if t.cfg.RefreezeRate > 0 && refreeze > t.cfg.RefreezeRate {
		refreeze = t.cfg.RefreezeRate
	}
	t.melted -= units.ForDuration(refreeze, dt.Seconds())
	if t.melted < 0 {
		t.melted = 0
	}
}
