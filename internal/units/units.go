// Package units defines the typed physical quantities used throughout the
// dcsprint simulator: power, energy, charge and temperature.
//
// All quantities are thin float64 wrappers. They exist to keep watt/joule
// confusion out of the power-flow and energy-budget arithmetic, and to give
// every printed number a consistent, human-readable form.
package units

import "fmt"

// Watts is electrical (or thermal) power.
type Watts float64

// Common power scales.
const (
	Kilowatt Watts = 1e3
	Megawatt Watts = 1e6
)

// Joules is energy.
type Joules float64

// WattHours converts an energy expressed in watt-hours to Joules.
func WattHours(wh float64) Joules { return Joules(wh * 3600) }

// Celsius is a temperature (absolute, not a delta).
type Celsius float64

// AmpHours is electrical charge, used for battery nameplate capacity.
type AmpHours float64

// Energy returns the energy stored by a charge at the given bus voltage.
func (ah AmpHours) Energy(voltage float64) Joules {
	return Joules(float64(ah) * voltage * 3600)
}

// ForDuration returns the energy delivered by holding power w for secs
// seconds. Tick loops take a tick's length in seconds once
// (time.Duration.Seconds) and pass that float on.
func ForDuration(w Watts, secs float64) Joules {
	return Joules(float64(w) * secs)
}

// Over returns the constant power that delivers energy j over secs
// seconds. It returns 0 when secs is not positive.
func (j Joules) Over(secs float64) Watts {
	if secs <= 0 {
		return 0
	}
	return Watts(float64(j) / secs)
}

// WattHours reports the energy in watt-hours.
func (j Joules) WattHours() float64 { return float64(j) / 3600 }

// String implements fmt.Stringer with an auto-scaled unit.
func (w Watts) String() string {
	switch {
	case w >= Megawatt || w <= -Megawatt:
		return fmt.Sprintf("%.3f MW", float64(w)/1e6)
	case w >= Kilowatt || w <= -Kilowatt:
		return fmt.Sprintf("%.3f kW", float64(w)/1e3)
	default:
		return fmt.Sprintf("%.1f W", float64(w))
	}
}

// String implements fmt.Stringer with an auto-scaled unit.
func (j Joules) String() string {
	switch {
	case j >= 1e9 || j <= -1e9:
		return fmt.Sprintf("%.3f GJ", float64(j)/1e9)
	case j >= 1e6 || j <= -1e6:
		return fmt.Sprintf("%.3f MJ", float64(j)/1e6)
	case j >= 1e3 || j <= -1e3:
		return fmt.Sprintf("%.3f kJ", float64(j)/1e3)
	default:
		return fmt.Sprintf("%.1f J", float64(j))
	}
}

// String implements fmt.Stringer.
func (c Celsius) String() string { return fmt.Sprintf("%.2f°C", float64(c)) }

// Clamp limits v to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
