package core

import (
	"math"
	"testing"
	"time"

	"dcsprint/internal/breaker"
	"dcsprint/internal/cooling"
	"dcsprint/internal/tes"
	"dcsprint/internal/units"
)

func TestCBExtraBudgetClosedForm(t *testing.T) {
	// 2 x sqrt(A x R) x rated with A = 21.6, R = 60 gives 72 x rated.
	b, err := breaker.New("x", 1000, breaker.Bulletin1489A())
	if err != nil {
		t.Fatal(err)
	}
	got := CBExtraBudget(b, time.Minute)
	if math.Abs(float64(got)-72000) > 1 {
		t.Fatalf("CBExtraBudget = %v, want 72 kJ", got)
	}
}

func TestCBExtraBudgetMatchesPolicySimulation(t *testing.T) {
	// Drive a breaker at exactly MaxLoadFor(reserve) every second and
	// integrate the delivered overload energy; it must approach the
	// closed form.
	b, err := breaker.New("x", 1000, breaker.Bulletin1489A())
	if err != nil {
		t.Fatal(err)
	}
	// The closed form excludes cool-down recovery; disable it here so the
	// simulation measures the same quantity.
	b.Cooldown = 1000 * time.Hour
	predicted := float64(CBExtraBudget(b, time.Minute))
	var delivered float64
	for i := 0; i < 1200; i++ {
		load := b.MaxLoadFor(time.Minute)
		if over := float64(load - b.Rated); over > 0 {
			delivered += over
		}
		if err := b.Step(load, 1); err != nil {
			t.Fatalf("policy tripped the breaker at %d: %v", i, err)
		}
	}
	if ratio := delivered / predicted; ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("simulated %v vs closed form %v (ratio %.3f)", delivered, predicted, ratio)
	}
}

func TestCBExtraBudgetScalesWithAccumulator(t *testing.T) {
	b, err := breaker.New("x", 1000, breaker.Bulletin1489A())
	if err != nil {
		t.Fatal(err)
	}
	fresh := CBExtraBudget(b, time.Minute)
	// Burn half the thermal budget (30 s at 60% overload).
	for i := 0; i < 30; i++ {
		if err := b.Step(1600, 1); err != nil {
			t.Fatal(err)
		}
	}
	half := CBExtraBudget(b, time.Minute)
	// Remaining budget scales with sqrt(1 - acc) = sqrt(0.5).
	want := float64(fresh) * math.Sqrt(0.5)
	if math.Abs(float64(half)-want) > 0.02*float64(fresh) {
		t.Fatalf("half-accumulator budget = %v, want ~%v", half, want)
	}
}

func TestCBExtraBudgetEdgeCases(t *testing.T) {
	b, err := breaker.New("x", 1000, breaker.Bulletin1489A())
	if err != nil {
		t.Fatal(err)
	}
	if got := CBExtraBudget(b, 0); got != 0 {
		t.Errorf("zero reserve budget = %v", got)
	}
	_ = b.Step(9000, 1) // magnetic trip
	if got := CBExtraBudget(b, time.Minute); got != 0 {
		t.Errorf("tripped breaker budget = %v", got)
	}
}

func TestCBExtraBudgetNumericFallback(t *testing.T) {
	// A cubic curve takes the numeric path; sanity-check against a direct
	// policy simulation.
	curve := breaker.TripCurve{A: 21.6, B: 3, Instantaneous: 5}
	b, err := breaker.New("x", 1000, curve)
	if err != nil {
		t.Fatal(err)
	}
	b.Cooldown = 1000 * time.Hour // measure without recovery, like the estimate
	predicted := float64(CBExtraBudget(b, time.Minute))
	if predicted <= 0 {
		t.Fatal("numeric budget is zero")
	}
	var delivered float64
	for i := 0; i < 3600; i++ {
		load := b.MaxLoadFor(time.Minute)
		if over := float64(load - b.Rated); over > 0 {
			delivered += over
		}
		if err := b.Step(load, 1); err != nil {
			t.Fatalf("tripped: %v", err)
		}
	}
	if ratio := delivered / predicted; ratio < 0.8 || ratio > 1.2 {
		t.Fatalf("numeric budget %v vs simulated %v", predicted, delivered)
	}
}

func TestTESElectricBudget(t *testing.T) {
	coolCfg := cooling.Default(10 * units.Megawatt)
	tank, err := tes.New(tes.DefaultTank(10 * units.Megawatt))
	if err != nil {
		t.Fatal(err)
	}
	got := TESElectricBudget(tank, coolCfg)
	// 12 min of full cooling load; chiller saving 2/3 of 5.3 MW.
	want := 2.0 / 3.0 * 5.3e6 * 720
	if math.Abs(float64(got)-want) > 0.01*want {
		t.Fatalf("TESElectricBudget = %v, want ~%v J", got, units.Joules(want))
	}
	if got := TESElectricBudget(nil, coolCfg); got != 0 {
		t.Errorf("nil tank budget = %v", got)
	}
	// Drain the tank: budget goes to zero.
	for !tank.Empty() {
		tank.Discharge(1e9, 60)
	}
	if got := TESElectricBudget(tank, coolCfg); got != 0 {
		t.Errorf("empty tank budget = %v", got)
	}
}

func TestEstimateBudgetComposition(t *testing.T) {
	f := newFacility(t, facilityOpts{})
	total := EstimateBudget(f.tree, f.tank, cooling.Default(f.tree.PeakNormalIT()), time.Minute)
	ups := f.tree.StoredUPSEnergy()
	var cb units.Joules
	for g := 0; g < f.tree.Groups(); g++ {
		b := f.tree.Breaker(g)
		cb += CBExtraBudget(&b, time.Minute)
	}
	tesPart := TESElectricBudget(f.tank, cooling.Default(f.tree.PeakNormalIT()))
	if math.Abs(float64(total-(ups+cb+tesPart))) > 1 {
		t.Fatalf("EstimateBudget = %v, parts sum to %v", total, ups+cb+tesPart)
	}
	if ups <= 0 || cb <= 0 || tesPart <= 0 {
		t.Fatalf("degenerate parts: ups=%v cb=%v tes=%v", ups, cb, tesPart)
	}
}
