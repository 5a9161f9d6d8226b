// Package cooling models the chiller/CRAC plant and the room-temperature
// dynamics that bound Phase 3 of Data Center Sprinting.
//
// The plant is sized for the data center's peak normal IT load, with cooling
// power derived from the PUE (default 1.53 per Pelley et al., counting only
// server and cooling power). During sprinting the chiller power is NOT
// raised (§V-C), so sprinting opens a gap between heat generation and heat
// absorption; the room integrates that gap.
//
// The temperature model is a lumped first-order integrator calibrated to the
// Schneider Electric CFD datum the paper relies on: with the chiller stopped
// and servers at peak normal power, the room temperature threshold "will
// never be achieved if the chiller is resumed at the 5th minute". We
// therefore set the room's thermal capacitance so a full-gap outage consumes
// the entire ambient-to-threshold margin in exactly 5 minutes. The paper's
// TES-activation rule follows directly:
//
//	activate TES at  5 min x peak normal server power / max additional server power
package cooling

import (
	"fmt"
	"math"
	"time"

	"dcsprint/internal/units"
)

// CFDOutageBudget is the Schneider CFD datum: the time a full cooling outage
// at peak normal load may last before the temperature threshold is reached.
const CFDOutageBudget = 5 * time.Minute

// Config describes the cooling plant and room thermal envelope.
type Config struct {
	// PeakNormalIT is the IT power the plant is sized for.
	PeakNormalIT units.Watts
	// PUE is the power usage effectiveness counting server + cooling power
	// only. Cooling power = IT power x (PUE - 1).
	PUE float64
	// Ambient is the steady-state room temperature under normal cooling.
	Ambient units.Celsius
	// Threshold is the temperature at which IT equipment must shut down.
	Threshold units.Celsius
	// ThermalCapacity is the room's lumped heat capacity in J/K. Zero
	// means "calibrate from the CFD datum" (see Calibrate).
	ThermalCapacity float64
}

// Default returns the paper's plant: PUE 1.53, and a 25 C -> 40 C margin
// consumed in 5 minutes by a full-gap outage at the given peak IT power.
func Default(peakNormalIT units.Watts) Config {
	c := Config{
		PeakNormalIT: peakNormalIT,
		PUE:          1.53,
		Ambient:      25,
		Threshold:    40,
	}
	c.ThermalCapacity = c.Calibrate()
	return c
}

// Calibrate returns the thermal capacity (J/K) implied by the CFD datum: a
// heat gap equal to PeakNormalIT exhausts the ambient-to-threshold margin in
// exactly CFDOutageBudget.
func (c Config) Calibrate() float64 {
	margin := float64(c.Threshold - c.Ambient)
	if margin <= 0 {
		return 0
	}
	return float64(c.PeakNormalIT) * CFDOutageBudget.Seconds() / margin
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.PeakNormalIT <= 0 {
		return fmt.Errorf("cooling: non-positive peak IT power %v", c.PeakNormalIT)
	}
	if c.PUE < 1 {
		return fmt.Errorf("cooling: PUE %v below 1", c.PUE)
	}
	if c.Threshold <= c.Ambient {
		return fmt.Errorf("cooling: threshold %v not above ambient %v", c.Threshold, c.Ambient)
	}
	if c.ThermalCapacity <= 0 {
		return fmt.Errorf("cooling: non-positive thermal capacity %v", c.ThermalCapacity)
	}
	return nil
}

// NormalCoolingPower returns the electrical power of the cooling plant when
// carrying the design load: PeakNormalIT x (PUE - 1).
func (c Config) NormalCoolingPower() units.Watts {
	return units.Watts(float64(c.PeakNormalIT) * (c.PUE - 1))
}

// ChillerHeatCapacity returns the heat-absorption capacity of the chiller
// plant, sized for the design IT load.
func (c Config) ChillerHeatCapacity() units.Watts { return c.PeakNormalIT }

// TESActivationDelay implements the paper's §V-C rule for when Phase 3 must
// begin: the CFD outage budget scaled down by how much faster sprinting heat
// accumulates than a full outage at peak normal power.
func TESActivationDelay(peakNormalServer, maxAdditionalServer units.Watts) time.Duration {
	if maxAdditionalServer <= 0 {
		return time.Duration(math.MaxInt64) // no extra heat: never needed
	}
	scale := float64(peakNormalServer) / float64(maxAdditionalServer)
	return time.Duration(float64(CFDOutageBudget) * scale)
}

// Room integrates the heat gap into a temperature. Construct with NewRoom.
type Room struct {
	cfg  Config
	temp units.Celsius
}

// NewRoom returns a room at ambient temperature.
func NewRoom(cfg Config) (*Room, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Room{cfg: cfg, temp: cfg.Ambient}, nil
}

// Temperature returns the current room temperature.
func (r *Room) Temperature() units.Celsius { return r.temp }

// Overheated reports whether the room has reached the shutdown threshold.
func (r *Room) Overheated() bool { return r.temp >= r.cfg.Threshold }

// Margin returns the remaining temperature margin before the threshold.
func (r *Room) Margin() float64 { return float64(r.cfg.Threshold - r.temp) }

// Step advances the room by dt with the given heat generation (IT power
// dissipated) and heat absorption (chiller + TES). Excess absorption cools
// the room but never below ambient.
func (r *Room) Step(heatGen, heatAbsorbed units.Watts, dt time.Duration) {
	if dt <= 0 {
		return
	}
	gap := float64(heatGen - heatAbsorbed)
	dT := gap * dt.Seconds() / r.cfg.ThermalCapacity
	r.temp += units.Celsius(dT)
	if r.temp < r.cfg.Ambient {
		r.temp = r.cfg.Ambient
	}
}

// TimeToThresholdFrom returns how long a room currently at temp can sustain
// the given constant heat gap before overheating. The second result is
// false when the gap never overheats the room (gap <= 0). It takes the
// starting temperature as an argument, so a controller can evaluate the
// guard against a supervised planning temperature instead of the physical
// model's internal state.
func (c Config) TimeToThresholdFrom(temp units.Celsius, gap units.Watts) (time.Duration, bool) {
	if gap <= 0 {
		return 0, false
	}
	margin := float64(c.Threshold - temp)
	if margin <= 0 {
		return 0, true
	}
	secs := margin * c.ThermalCapacity / float64(gap)
	return time.Duration(secs * float64(time.Second)), true
}
