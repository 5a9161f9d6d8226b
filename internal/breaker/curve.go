// Package breaker models data-center circuit breakers: the UL489-class
// inverse-time (long-delay) trip curve, a thermal accumulator that tracks
// how close a breaker is to tripping under a time-varying overload, and a
// water-filling allocator for dividing a parent breaker's budget among
// children.
//
// The curve is calibrated to the Bulletin 1489-A readings quoted in the
// paper (Zheng & Wang, ICDCS'15, §VII-D): a 60% overload trips in about one
// minute and a 30% overload in about four, i.e. halving the overload
// quadruples the trip time. That gives the inverse-square law
//
//	T(r) = A / (r-1)^B  with A = 21.6 s, B = 2
//
// where r is the load as a multiple of the rated limit. Loads at or below
// the rating never trip (UL489 requires holding 100% indefinitely); loads at
// or above the instantaneous ratio trip magnetically with no delay.
package breaker

import (
	"fmt"
	"math"
	"time"
)

// TripCurve is an inverse-time long-delay trip characteristic
// T(r) = A/(r-1)^B for overload ratio r in (1, Instantaneous).
type TripCurve struct {
	// A is the curve coefficient in seconds.
	A float64
	// B is the curve exponent. B = 2 reproduces the paper's reading that
	// halving an overload quadruples the trip time.
	B float64
	// Instantaneous is the overload ratio at or above which the magnetic
	// element trips with no intentional delay (short-circuit region).
	Instantaneous float64
}

// Bulletin1489A returns the trip curve used throughout the paper's
// evaluation, fitted through (r=1.6, 60 s) and (r=1.3, 240 s), with the
// magnetic region starting at 5x the rating.
func Bulletin1489A() TripCurve {
	return TripCurve{A: 21.6, B: 2, Instantaneous: 5}
}

// Validate reports whether the curve parameters are physically meaningful.
func (c TripCurve) Validate() error {
	if c.A <= 0 {
		return fmt.Errorf("breaker: curve coefficient A = %v, must be > 0", c.A)
	}
	if c.B <= 0 {
		return fmt.Errorf("breaker: curve exponent B = %v, must be > 0", c.B)
	}
	if c.Instantaneous <= 1 {
		return fmt.Errorf("breaker: instantaneous ratio %v, must be > 1", c.Instantaneous)
	}
	return nil
}

// TripTime returns the time to trip at a constant overload ratio r.
// The second result is false when the breaker never trips at that ratio
// (r <= 1), in which case the duration is meaningless.
func (c TripCurve) TripTime(r float64) (time.Duration, bool) {
	if r <= 1 {
		return 0, false
	}
	if r >= c.Instantaneous {
		return 0, true
	}
	// x*x is bit-identical to math.Pow(x, 2) whenever the square is a
	// normal number, and r-1 >= 2^-52 keeps it above the subnormal range.
	x := r - 1
	var p float64
	if c.B == 2 {
		p = x * x
	} else {
		p = math.Pow(x, c.B)
	}
	secs := c.A / p
	// Guard against sub-tick answers turning into 0 and being read as
	// "instantaneous": round up to a nanosecond floor.
	if secs <= 0 {
		return time.Nanosecond, true
	}
	const maxSecs = float64(math.MaxInt64) / float64(time.Second)
	if secs >= maxSecs {
		return time.Duration(math.MaxInt64), true
	}
	return time.Duration(secs * float64(time.Second)), true
}

// OverloadFor returns the largest overload ratio r that a fresh (cold)
// breaker sustains for at least d. It returns 1 when d is so long that no
// overload is tolerable, and never returns more than the instantaneous
// ratio (approached from below).
func (c TripCurve) OverloadFor(d time.Duration) float64 {
	if d <= 0 {
		return c.Instantaneous * (1 - 1e-9)
	}
	r := 1 + math.Pow(c.A/d.Seconds(), 1/c.B)
	if r >= c.Instantaneous {
		// Stay strictly inside the long-delay region so that the
		// returned ratio has a finite, positive trip time.
		return c.Instantaneous * (1 - 1e-9)
	}
	return r
}
