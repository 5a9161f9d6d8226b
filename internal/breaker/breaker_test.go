package breaker

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"dcsprint/internal/units"
)

func newTestBreaker(t *testing.T) *Breaker {
	t.Helper()
	b, err := New("test", 1000, Bulletin1489A())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return b
}

func TestNewValidation(t *testing.T) {
	if _, err := New("x", 0, Bulletin1489A()); err == nil {
		t.Error("zero rating accepted")
	}
	if _, err := New("x", -5, Bulletin1489A()); err == nil {
		t.Error("negative rating accepted")
	}
	if _, err := New("x", 100, TripCurve{}); err == nil {
		t.Error("invalid curve accepted")
	}
}

func TestStepUnderRatedNeverTrips(t *testing.T) {
	b := newTestBreaker(t)
	for i := 0; i < 3600; i++ {
		if err := b.Step(1000, 1); err != nil {
			t.Fatalf("tripped at rated load after %d s: %v", i, err)
		}
	}
	if b.Accumulator() != 0 {
		t.Fatalf("accumulator = %v at rated load, want 0", b.Accumulator())
	}
}

func TestStepConstantOverloadTripsOnSchedule(t *testing.T) {
	// 60% overload must trip at ~60 seconds.
	b := newTestBreaker(t)
	var trippedAt int
	for i := 1; i <= 120; i++ {
		if err := b.Step(1600, 1); err != nil {
			if !errors.Is(err, ErrTripped) {
				t.Fatalf("unexpected error: %v", err)
			}
			trippedAt = i
			break
		}
	}
	if trippedAt < 59 || trippedAt > 61 {
		t.Fatalf("tripped at %d s, want ~60 s", trippedAt)
	}
	if !b.Tripped() {
		t.Fatal("Tripped() = false after trip")
	}
	// Further steps keep failing.
	if err := b.Step(500, 1); !errors.Is(err, ErrTripped) {
		t.Fatalf("Step after trip = %v, want ErrTripped", err)
	}
}

func TestMagneticTrip(t *testing.T) {
	b := newTestBreaker(t)
	err := b.Step(5000, 1)
	if !errors.Is(err, ErrTripped) {
		t.Fatalf("magnetic region did not trip: %v", err)
	}
}

func TestStepRejectsBadDt(t *testing.T) {
	b := newTestBreaker(t)
	if err := b.Step(100, 0); err == nil {
		t.Error("dt=0 accepted")
	}
	if err := b.Step(100, -1); err == nil {
		t.Error("dt<0 accepted")
	}
}

func TestThermalMemoryAcrossVaryingLoad(t *testing.T) {
	// 30 s at 60% overload (half the budget) then switch to 30% overload:
	// the remaining budget is half of 240 s = ~120 s.
	b := newTestBreaker(t)
	for i := 0; i < 30; i++ {
		if err := b.Step(1600, 1); err != nil {
			t.Fatalf("early trip: %v", err)
		}
	}
	if acc := b.Accumulator(); acc < 0.45 || acc > 0.55 {
		t.Fatalf("accumulator after half budget = %v, want ~0.5", acc)
	}
	var trippedAfter int
	for i := 1; i <= 400; i++ {
		if err := b.Step(1300, 1); err != nil {
			trippedAfter = i
			break
		}
	}
	if trippedAfter < 115 || trippedAfter > 125 {
		t.Fatalf("tripped after %d s at 30%% overload, want ~120 s", trippedAfter)
	}
}

func TestCooldownRestoresBudget(t *testing.T) {
	b := newTestBreaker(t)
	b.Cooldown = time.Minute
	for i := 0; i < 30; i++ {
		if err := b.Step(1600, 1); err != nil {
			t.Fatalf("early trip: %v", err)
		}
	}
	// Cool for a full minute at rated load.
	for i := 0; i < 60; i++ {
		if err := b.Step(900, 1); err != nil {
			t.Fatalf("trip while cooling: %v", err)
		}
	}
	if acc := b.Accumulator(); acc != 0 {
		t.Fatalf("accumulator after cooldown = %v, want 0", acc)
	}
}

func TestReset(t *testing.T) {
	b := newTestBreaker(t)
	_ = b.Step(5000, 1)
	if !b.Tripped() {
		t.Fatal("setup: breaker should have tripped")
	}
	b.Reset()
	if b.Tripped() || b.Accumulator() != 0 || b.Load() != 0 {
		t.Fatal("Reset did not clear state")
	}
	if err := b.Step(1000, 1); err != nil {
		t.Fatalf("Step after Reset: %v", err)
	}
}

func TestRemainingTime(t *testing.T) {
	b := newTestBreaker(t)
	if _, finite := b.RemainingTime(900); finite {
		t.Error("under-rated load reported a finite remaining time")
	}
	rem, finite := b.RemainingTime(1600)
	if !finite || rem < 59*time.Second || rem > 61*time.Second {
		t.Fatalf("fresh RemainingTime(1600) = (%v, %v), want ~60 s", rem, finite)
	}
	// Burn half the budget; the remaining time halves.
	for i := 0; i < 30; i++ {
		if err := b.Step(1600, 1); err != nil {
			t.Fatalf("early trip: %v", err)
		}
	}
	rem, finite = b.RemainingTime(1600)
	if !finite || rem < 29*time.Second || rem > 31*time.Second {
		t.Fatalf("half-budget RemainingTime = (%v, %v), want ~30 s", rem, finite)
	}
	if rem, _ := b.RemainingTime(9000); rem != 0 {
		t.Fatalf("magnetic-region remaining time = %v, want 0", rem)
	}
	_ = b.Step(5000, 1)
	if rem, finite := b.RemainingTime(1600); !finite || rem != 0 {
		t.Fatal("tripped breaker must report zero remaining time")
	}
}

func TestMaxLoadFor(t *testing.T) {
	b := newTestBreaker(t)
	// A fresh breaker held for 60 s tolerates ~60% overload.
	got := b.MaxLoadFor(time.Minute)
	if got < 1590 || got > 1610 {
		t.Fatalf("MaxLoadFor(1m) = %v, want ~1600", got)
	}
	// Never below the rating, even with a full accumulator.
	for i := 0; i < 30; i++ {
		_ = b.Step(1600, 1)
	}
	if got := b.MaxLoadFor(time.Hour); got < b.Rated {
		t.Fatalf("MaxLoadFor below rating: %v", got)
	}
	// With half the budget burned, surviving 30 s allows what a fresh
	// breaker allows for 60 s.
	got = b.MaxLoadFor(30 * time.Second)
	if got < 1590 || got > 1610 {
		t.Fatalf("half-budget MaxLoadFor(30s) = %v, want ~1600", got)
	}
	_ = b.Step(5000, 1)
	if got := b.MaxLoadFor(time.Minute); got != 0 {
		t.Fatalf("tripped MaxLoadFor = %v, want 0", got)
	}
}

func TestMaxLoadForZeroDuration(t *testing.T) {
	b := newTestBreaker(t)
	got := b.MaxLoadFor(0)
	if got <= b.Rated {
		t.Fatalf("MaxLoadFor(0) = %v, want above rating", got)
	}
	if b.Ratio(got) >= b.Curve.Instantaneous {
		t.Fatalf("MaxLoadFor(0) = %v reaches the magnetic region", got)
	}
}

// Property: stepping at any load never drives the accumulator outside [0,1].
func TestAccumulatorBoundsProperty(t *testing.T) {
	f := func(loads []uint16) bool {
		b, err := New("p", 1000, Bulletin1489A())
		if err != nil {
			return false
		}
		for _, l := range loads {
			_ = b.Step(units.Watts(l), 1)
			if b.Accumulator() < 0 || b.Accumulator() > 1 {
				return false
			}
			if b.Tripped() {
				return true
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a breaker stepped at exactly MaxLoadFor(d) survives for d.
func TestMaxLoadForSurvivesProperty(t *testing.T) {
	f := func(seed uint8) bool {
		b, err := New("p", 1000, Bulletin1489A())
		if err != nil {
			return false
		}
		d := time.Duration(int(seed)%300+5) * time.Second
		load := b.MaxLoadFor(d)
		steps := int(d / time.Second)
		for i := 0; i < steps; i++ {
			if err := b.Step(load, 1); err != nil {
				// Tripping on the final boundary step is acceptable
				// (accumulator reaches exactly 1 at t = d).
				return i >= steps-1
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDerateIgnoresFractionsOutsideUnitInterval(t *testing.T) {
	tests := []struct {
		name string
		frac float64
		want units.Watts
	}{
		{"half", 0.5, 500},
		{"one", 1, 1000},
		{"zero", 0, 1000},
		{"negative", -0.3, 1000},
		{"above one", 1.2, 1000},
		{"NaN", math.NaN(), 1000},
		{"infinite", math.Inf(1), 1000},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := newTestBreaker(t)
			b.Derate(tt.frac)
			if b.Rated != tt.want {
				t.Fatalf("Derate(%v): rating %v, want %v", tt.frac, b.Rated, tt.want)
			}
		})
	}
}

func TestSameMaxLoad(t *testing.T) {
	steeper := Bulletin1489A()
	steeper.B = 3
	tests := []struct {
		name  string
		other func(b *Breaker)
		same  bool
	}{
		{"identical", func(*Breaker) {}, true},
		{"other name and cooldown", func(b *Breaker) { b.Name, b.Cooldown = "twin", time.Minute }, true},
		{"derated", func(b *Breaker) { b.Derate(0.9) }, false},
		{"other curve", func(b *Breaker) { b.Curve = steeper }, false},
		{"warmer", func(b *Breaker) { b.acc = 0.25 }, false},
		{"tripped", func(b *Breaker) { b.tripped = true }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a, b := newTestBreaker(t), newTestBreaker(t)
			a.acc, b.acc = 0.5, 0.5
			tt.other(b)
			if got := a.SameMaxLoad(b); got != tt.same {
				t.Fatalf("SameMaxLoad = %v, want %v", got, tt.same)
			}
			if b.SameMaxLoad(a) != tt.same {
				t.Fatal("SameMaxLoad is not symmetric")
			}
			if tt.same {
				for _, d := range []time.Duration{0, time.Second, time.Minute, time.Hour} {
					if x, y := a.MaxLoadFor(d), b.MaxLoadFor(d); x != y {
						t.Fatalf("MaxLoadFor(%v): %v and %v on breakers reported alike", d, x, y)
					}
				}
			}
		})
	}
}

// TestLockstepCoversState changes each field Step or a reading sees, in
// turn, and requires Lockstep to tell the breakers apart. Breakers it
// reports alike stay alike under one load.
func TestLockstepCoversState(t *testing.T) {
	steeper := Bulletin1489A()
	steeper.B = 3
	base := func() *Breaker {
		b := newTestBreaker(t)
		b.acc, b.load = 0.5, 900
		return b
	}
	tests := []struct {
		name   string
		change func(b *Breaker)
		same   bool
	}{
		{"identical", func(*Breaker) {}, true},
		{"other name", func(b *Breaker) { b.Name = "twin" }, true},
		{"derated", func(b *Breaker) { b.Derate(0.9) }, false},
		{"other curve", func(b *Breaker) { b.Curve = steeper }, false},
		{"other cooldown", func(b *Breaker) { b.Cooldown = time.Minute }, false},
		{"warmer", func(b *Breaker) { b.acc = 0.25 }, false},
		{"tripped", func(b *Breaker) { b.tripped = true }, false},
		{"other last load", func(b *Breaker) { b.load = 800 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a, b := base(), base()
			tt.change(b)
			if a.Lockstep(b) != tt.same || b.Lockstep(a) != tt.same {
				t.Fatalf("Lockstep = %v/%v, want %v", a.Lockstep(b), b.Lockstep(a), tt.same)
			}
			if !tt.same {
				return
			}
			for _, load := range []units.Watts{500, 1000, 1400, 4000, 6000} {
				errA, errB := a.Step(load, 1), b.Step(load, 1)
				if (errA == nil) != (errB == nil) || a.State() != b.State() || !a.Lockstep(b) {
					t.Fatalf("load %v: alike breakers stepped to %+v (%v) and %+v (%v)", load, a.State(), errA, b.State(), errB)
				}
			}
		})
	}
}

// TestMaxLoadForFollowsEveryInput asks one breaker for its bound, changes
// each input of the answer in turn, and requires the same bound a fresh
// breaker in that state gives: the memo must never answer for an old
// state.
func TestMaxLoadForFollowsEveryInput(t *testing.T) {
	steeper := Bulletin1489A()
	steeper.B = 3
	b := newTestBreaker(t)
	steps := []struct {
		name   string
		change func(b *Breaker)
	}{
		{"warmed", func(b *Breaker) { b.acc = 0.3 }},
		{"derated", func(b *Breaker) { b.Derate(0.8) }},
		{"other curve", func(b *Breaker) { b.Curve = steeper }},
		{"cooled", func(b *Breaker) { b.acc = 0 }},
		{"stepped hot", func(b *Breaker) { _ = b.Step(1500, 10) }},
		{"tripped", func(b *Breaker) { b.tripped = true }},
		{"reset", func(b *Breaker) { b.Reset() }},
	}
	for _, st := range steps {
		for _, d := range []time.Duration{time.Minute, 30 * time.Second, time.Minute} {
			b.MaxLoadFor(d)
		}
		st.change(b)
		fresh := &Breaker{Name: "fresh", Rated: b.Rated, Curve: b.Curve, Cooldown: b.Cooldown, acc: b.acc, tripped: b.tripped}
		for _, d := range []time.Duration{time.Minute, 30 * time.Second, 0} {
			if got, want := b.MaxLoadFor(d), fresh.MaxLoadFor(d); got != want {
				t.Fatalf("%s: MaxLoadFor(%v) = %v, a fresh breaker in that state says %v", st.name, d, got, want)
			}
		}
	}
}
