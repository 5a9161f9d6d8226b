package breaker

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestBulletin1489ACalibration(t *testing.T) {
	// The paper's reading of the Bulletin 1489-A curve: 60% overload trips
	// in ~1 minute, 30% in ~4 minutes (§VII-D).
	c := Bulletin1489A()
	tests := []struct {
		name string
		r    float64
		want time.Duration
	}{
		{"60% overload -> 1 min", 1.6, time.Minute},
		{"30% overload -> 4 min", 1.3, 4 * time.Minute},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, trips := c.TripTime(tt.r)
			if !trips {
				t.Fatal("expected a finite trip time")
			}
			if diff := got - tt.want; diff < -time.Second || diff > time.Second {
				t.Fatalf("TripTime(%v) = %v, want %v", tt.r, got, tt.want)
			}
		})
	}
}

func TestTripTimeRegions(t *testing.T) {
	c := Bulletin1489A()
	if _, trips := c.TripTime(1.0); trips {
		t.Error("rated load must never trip")
	}
	if _, trips := c.TripTime(0.5); trips {
		t.Error("under-rated load must never trip")
	}
	if d, trips := c.TripTime(5.0); !trips || d != 0 {
		t.Errorf("magnetic region: got (%v, %v), want (0, true)", d, trips)
	}
	if d, trips := c.TripTime(50); !trips || d != 0 {
		t.Errorf("deep short circuit: got (%v, %v)", d, trips)
	}
}

func TestTripTimeMonotone(t *testing.T) {
	c := Bulletin1489A()
	prev := time.Duration(math.MaxInt64)
	for r := 1.05; r < 4.9; r += 0.05 {
		d, trips := c.TripTime(r)
		if !trips {
			t.Fatalf("TripTime(%v) does not trip", r)
		}
		if d > prev {
			t.Fatalf("trip time not monotone decreasing at r=%v: %v > %v", r, d, prev)
		}
		prev = d
	}
}

func TestOverloadForInvertsTripTime(t *testing.T) {
	c := Bulletin1489A()
	for _, d := range []time.Duration{time.Second, 30 * time.Second, time.Minute, 10 * time.Minute, time.Hour} {
		r := c.OverloadFor(d)
		if r <= 1 {
			t.Fatalf("OverloadFor(%v) = %v, want > 1", d, r)
		}
		tt, trips := c.TripTime(r)
		if !trips {
			t.Fatalf("inverted ratio %v does not trip", r)
		}
		// The inversion is exact in the long-delay region; when the exact
		// ratio would land in the magnetic region it is clamped down,
		// which only makes the survival time longer (conservative).
		if ratio := tt.Seconds() / d.Seconds(); ratio < 0.999 {
			t.Fatalf("TripTime(OverloadFor(%v)) = %v, want >= %v", d, tt, d)
		}
	}
}

func TestOverloadForEdges(t *testing.T) {
	c := Bulletin1489A()
	if r := c.OverloadFor(0); r >= c.Instantaneous {
		t.Fatalf("OverloadFor(0) = %v, must stay below instantaneous", r)
	}
	if r := c.OverloadFor(-time.Second); r >= c.Instantaneous {
		t.Fatalf("OverloadFor(<0) = %v", r)
	}
	// A very short target still yields a finite trip time.
	r := c.OverloadFor(time.Millisecond)
	if _, trips := c.TripTime(r); !trips {
		t.Fatal("short-duration inversion left the long-delay region")
	}
	// A week-long hold allows essentially no overload.
	if r := c.OverloadFor(7 * 24 * time.Hour); r > 1.01 {
		t.Fatalf("OverloadFor(week) = %v, want ~1", r)
	}
}

func TestCurveValidate(t *testing.T) {
	tests := []struct {
		name  string
		curve TripCurve
		ok    bool
	}{
		{"bulletin", Bulletin1489A(), true},
		{"zero A", TripCurve{A: 0, B: 2, Instantaneous: 5}, false},
		{"negative B", TripCurve{A: 1, B: -1, Instantaneous: 5}, false},
		{"instantaneous <= 1", TripCurve{A: 1, B: 2, Instantaneous: 1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.curve.Validate()
			if (err == nil) != tt.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

// Property: OverloadFor is the inverse of TripTime over the long-delay
// region, and is monotone decreasing in the duration.
func TestOverloadForMonotoneProperty(t *testing.T) {
	c := Bulletin1489A()
	f := func(a, b uint32) bool {
		da := time.Duration(a%100000+1) * time.Millisecond
		db := time.Duration(b%100000+1) * time.Millisecond
		if da > db {
			da, db = db, da
		}
		return c.OverloadFor(da) >= c.OverloadFor(db)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPaperQuadrupleRule(t *testing.T) {
	// "when the CB overload decreases from 60% to 30% (2 times), the trip
	// time increases from 1 minute to 4 minutes (4 times)" — §VII-D. The
	// general property: halving the overload quadruples the trip time.
	c := Bulletin1489A()
	for _, over := range []float64{0.2, 0.4, 0.8, 1.6} {
		tFull, _ := c.TripTime(1 + over)
		tHalf, _ := c.TripTime(1 + over/2)
		ratio := tHalf.Seconds() / tFull.Seconds()
		if math.Abs(ratio-4) > 0.01 {
			t.Fatalf("halving overload %v scaled trip time by %.3f, want 4", over, ratio)
		}
	}
}

// powTripTime is TripTime computed through math.Pow for every exponent.
func powTripTime(c TripCurve, r float64) time.Duration {
	secs := c.A / math.Pow(r-1, c.B)
	const maxSecs = float64(math.MaxInt64) / float64(time.Second)
	if secs >= maxSecs {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(secs * float64(time.Second))
}

func TestTripTimeSquareMatchesPow(t *testing.T) {
	steep := Bulletin1489A()
	steep.B = 3
	tests := []struct {
		name  string
		curve TripCurve
		r     float64
	}{
		{"smallest overload", Bulletin1489A(), 1 + 0x1p-52},
		{"nano overload", Bulletin1489A(), 1 + 1e-9},
		{"30% overload", Bulletin1489A(), 1.3},
		{"60% overload", Bulletin1489A(), 1.6},
		{"just under magnetic", Bulletin1489A(), 4.999},
		{"cubic curve", steep, 1.6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			x := tt.r - 1
			if tt.curve.B == 2 && math.Float64bits(x*x) != math.Float64bits(math.Pow(x, 2)) {
				t.Fatalf("x*x = %v but math.Pow(x, 2) = %v at x = %v", x*x, math.Pow(x, 2), x)
			}
			got, trips := tt.curve.TripTime(tt.r)
			if !trips {
				t.Fatalf("TripTime(%v) does not trip", tt.r)
			}
			if want := powTripTime(tt.curve, tt.r); got != want {
				t.Fatalf("TripTime(%v) = %v, math.Pow form %v", tt.r, got, want)
			}
		})
	}
}
