package breaker

import (
	"errors"
	"fmt"
	"math"
	"time"

	"dcsprint/internal/units"
)

// ErrTripped is returned by Step once the thermal accumulator reaches 1 (or
// the magnetic element fires). A tripped breaker delivers no power until
// Reset.
var ErrTripped = errors.New("breaker: tripped")

// DefaultCooldown is the time a fully heated (accumulator = 1) breaker takes
// to recover completely once the load returns below the rating.
const DefaultCooldown = 10 * time.Minute

// Breaker is a circuit breaker protecting one power-delivery component. It
// integrates thermal stress over time: each second at overload ratio r
// contributes 1/T(r) toward tripping, and time spent at or below the rating
// cools the accumulator linearly over Cooldown.
type Breaker struct {
	// Name identifies the breaker in telemetry and errors.
	Name string
	// Rated is the rated power limit (overload ratio 1).
	Rated units.Watts
	// Curve is the long-delay trip characteristic.
	Curve TripCurve
	// Cooldown is the full-recovery time; zero means DefaultCooldown.
	Cooldown time.Duration

	acc     float64 // thermal accumulator in [0, 1]; trips at 1
	tripped bool
	load    units.Watts // last observed load

	// maxFor is MaxLoadFor's last answer with every input it read: a
	// controller asks for one reserve on every tick, and the rating, curve
	// and accumulator rarely move between ticks. It is a memo, not state,
	// so State and SetState leave it alone.
	maxFor struct {
		d     time.Duration
		acc   float64
		rated units.Watts
		curve TripCurve
		load  units.Watts
	}
}

// New returns a breaker with the given rating and curve.
func New(name string, rated units.Watts, curve TripCurve) (*Breaker, error) {
	if rated <= 0 {
		return nil, fmt.Errorf("breaker %s: non-positive rating %v", name, rated)
	}
	if err := curve.Validate(); err != nil {
		return nil, fmt.Errorf("breaker %s: %w", name, err)
	}
	return &Breaker{Name: name, Rated: rated, Curve: curve, Cooldown: DefaultCooldown}, nil
}

// Ratio returns the overload ratio of a load against this breaker's rating.
func (b *Breaker) Ratio(load units.Watts) float64 {
	return float64(load) / float64(b.Rated)
}

// Accumulator returns the current thermal stress in [0, 1].
func (b *Breaker) Accumulator() float64 { return b.acc }

// Tripped reports whether the breaker has opened.
func (b *Breaker) Tripped() bool { return b.tripped }

// Load returns the load observed by the most recent Step.
func (b *Breaker) Load() units.Watts { return b.load }

// Derate permanently reduces the rating to frac of its current value — an
// aged or heat-soaked breaker that can no longer carry its nameplate. The
// thermal accumulator and trip state are preserved; frac outside (0, 1],
// NaN included, is ignored.
func (b *Breaker) Derate(frac float64) {
	if !(frac > 0 && frac <= 1) {
		return
	}
	b.Rated = units.Watts(float64(b.Rated) * frac)
}

// Reset closes a tripped breaker and clears its thermal state. In a real
// facility this is a manual intervention after a shutdown; the simulator
// exposes it for experiment reuse.
func (b *Breaker) Reset() {
	b.tripped = false
	b.acc = 0
	b.load = 0
}

// Step advances the breaker by dt seconds under the given load. It returns
// ErrTripped (wrapped with the breaker name) at the step during which the
// accumulated thermal stress reaches 1 or the magnetic element fires.
// Calling Step on a tripped breaker keeps returning the error.
func (b *Breaker) Step(load units.Watts, dt float64) error {
	if b.tripped {
		return fmt.Errorf("breaker %s: %w", b.Name, ErrTripped)
	}
	if dt <= 0 {
		return fmt.Errorf("breaker %s: non-positive step %gs", b.Name, dt)
	}
	b.load = load
	r := b.Ratio(load)
	if r >= b.Curve.Instantaneous {
		b.tripped = true
		b.acc = 1
		return fmt.Errorf("breaker %s: magnetic trip at ratio %.2f: %w", b.Name, r, ErrTripped)
	}
	if r <= 1 {
		if b.acc == 0 {
			return nil // already cold: the clamp below would keep it at 0
		}
		cd := b.Cooldown
		if cd <= 0 {
			cd = DefaultCooldown
		}
		b.acc -= dt / cd.Seconds()
		if b.acc < 0 {
			b.acc = 0
		}
		return nil
	}
	t, _ := b.Curve.TripTime(r)
	b.acc += dt / t.Seconds()
	if b.acc >= 1 {
		b.acc = 1
		b.tripped = true
		return fmt.Errorf("breaker %s: thermal trip at ratio %.2f: %w", b.Name, r, ErrTripped)
	}
	return nil
}

// RemainingTime returns how long the breaker survives if the given load
// continues unchanged, accounting for stress already accumulated. The
// second result is false when the load never trips the breaker.
func (b *Breaker) RemainingTime(load units.Watts) (time.Duration, bool) {
	if b.tripped {
		return 0, true
	}
	r := b.Ratio(load)
	if r <= 1 {
		return 0, false
	}
	if r >= b.Curve.Instantaneous {
		return 0, true
	}
	t, _ := b.Curve.TripTime(r)
	rem := time.Duration((1 - b.acc) * float64(t))
	return rem, true
}

// SameMaxLoad reports whether MaxLoadFor answers the same on b and o for
// every duration: the two breakers share a rating, a curve, a thermal
// accumulator and a trip state.
func (b *Breaker) SameMaxLoad(o *Breaker) bool {
	return b.Rated == o.Rated && b.Curve == o.Curve && b.acc == o.acc && b.tripped == o.tripped
}

// Lockstep reports whether b and o are in identical state: one load steps
// them to identical states, and every reading answers the same on both. It
// adds to SameMaxLoad the cooldown, which Step reads, and the last load,
// which a tripped breaker keeps. Only the names may differ.
func (b *Breaker) Lockstep(o *Breaker) bool {
	return b.SameMaxLoad(o) && b.Cooldown == o.Cooldown && b.load == o.load
}

// MaxLoadFor returns the largest load the breaker can carry continuously for
// at least d from its current thermal state. The answer is never below the
// rating: the rating is always sustainable.
func (b *Breaker) MaxLoadFor(d time.Duration) units.Watts {
	if b.tripped {
		return 0
	}
	headroom := 1 - b.acc
	if headroom <= 0 {
		return b.Rated
	}
	if d <= 0 {
		d = time.Nanosecond
	}
	m := &b.maxFor
	if m.d != d || m.acc != b.acc || m.rated != b.Rated || m.curve != b.Curve {
		m.d, m.acc, m.rated, m.curve = d, b.acc, b.Rated, b.Curve
		m.load = b.maxLoadFor(d, headroom)
	}
	return m.load
}

// maxLoadFor is MaxLoadFor past its memo, for an untripped breaker with
// headroom left.
func (b *Breaker) maxLoadFor(d time.Duration, headroom float64) units.Watts {
	// Need (1-acc) * T(r) >= d, i.e. T(r) >= d/(1-acc). Guard against a
	// near-exhausted accumulator overflowing the duration conversion.
	effSecs := d.Seconds() / headroom
	const maxSecs = float64(math.MaxInt64) / float64(time.Second)
	if effSecs >= maxSecs {
		return b.Rated
	}
	r := b.Curve.OverloadFor(time.Duration(effSecs * float64(time.Second)))
	if r < 1 {
		r = 1
	}
	return units.Watts(r) * b.Rated
}
