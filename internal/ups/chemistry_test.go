package ups

import (
	"math"
	"testing"
	"testing/quick"
)

func TestChemistryValidate(t *testing.T) {
	tests := []struct {
		name string
		chem Chemistry
		ok   bool
	}{
		{"LA", LeadAcid(), true},
		{"LFP", LFP(), true},
		{"zero life", Chemistry{RequiredYears: 0, FullCycleLife: 100, DoDExponent: 2}, false},
		{"zero cycles", Chemistry{RequiredYears: 4, FullCycleLife: 0, DoDExponent: 2}, false},
		{"exponent below 1", Chemistry{RequiredYears: 4, FullCycleLife: 100, DoDExponent: 0.5}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.chem.Validate(); (err == nil) != tt.ok {
				t.Fatalf("Validate = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestPaperLifetimeClaims(t *testing.T) {
	lfp := LFP()
	// §IV-B: "a UPS battery (e.g., LFP battery) can be fully discharged
	// for 10 times per month without its lifetime being affected".
	if !lfp.LifetimeNeutral(10, 1.0) {
		t.Fatalf("LFP: 10 full discharges/month shorten life: %.1f years",
			lfp.ProjectedYears(10, 1.0))
	}
	// §V-D: the Fig 1 workload "has 200 bursts in a month that discharge
	// 26% of the UPS capacity each time on average, which has no impact
	// on UPS lifetime".
	if !lfp.LifetimeNeutral(200, 0.26) {
		t.Fatalf("LFP: 200 x 26%% discharges/month shorten life: %.1f years",
			lfp.ProjectedYears(200, 0.26))
	}
	// But the budget is not unlimited: 200 full discharges per month
	// would destroy the battery early.
	if lfp.LifetimeNeutral(200, 1.0) {
		t.Fatal("LFP: 200 full discharges/month reported lifetime-neutral")
	}
	// Lead-acid has a 4-year requirement and a smaller budget: ten full
	// discharges a month is already too much.
	la := LeadAcid()
	if la.LifetimeNeutral(10, 1.0) {
		t.Fatal("LA: 10 full discharges/month reported lifetime-neutral")
	}
	if !la.LifetimeNeutral(3, 0.26) {
		t.Fatal("LA: occasional shallow use should be fine")
	}
}

func TestDamagePerDischarge(t *testing.T) {
	c := Chemistry{Name: "t", RequiredYears: 4, FullCycleLife: 100, DoDExponent: 2}
	if got := c.DamagePerDischarge(1); got != 0.01 {
		t.Fatalf("full discharge damage = %v, want 0.01", got)
	}
	if got := c.DamagePerDischarge(0.5); got != 0.0025 {
		t.Fatalf("half discharge damage = %v, want 0.0025", got)
	}
	if got := c.DamagePerDischarge(0); got != 0 {
		t.Fatalf("zero discharge damage = %v", got)
	}
	if got := c.DamagePerDischarge(-1); got != 0 {
		t.Fatalf("negative dod damage = %v", got)
	}
	if got := c.DamagePerDischarge(2); got != 0.01 {
		t.Fatalf("clamped dod damage = %v", got)
	}
}

func TestProjectedYears(t *testing.T) {
	lfp := LFP()
	if got := lfp.ProjectedYears(0, 1); !math.IsInf(got, 1) {
		t.Fatalf("no-use projection = %v, want +Inf", got)
	}
	// More use, shorter life; always consistent with LifetimeNeutral.
	y10 := lfp.ProjectedYears(10, 1)
	y20 := lfp.ProjectedYears(20, 1)
	if y20 >= y10 {
		t.Fatalf("projection not decreasing: %v vs %v", y10, y20)
	}
	if (y10 >= lfp.RequiredYears) != lfp.LifetimeNeutral(10, 1) {
		t.Fatal("projection and neutrality disagree")
	}
}

func TestWearLedgerExcursions(t *testing.T) {
	l, err := NewWearLedger(LFP())
	if err != nil {
		t.Fatal(err)
	}
	// Full -> down to 40% -> back to full: one excursion at 60% depth.
	for _, soc := range []float64{1, 0.9, 0.6, 0.4, 0.7, 1.0} {
		l.Observe(soc)
	}
	want := LFP().DamagePerDischarge(0.6)
	if math.Abs(l.Damage()-want) > 1e-15 {
		t.Fatalf("damage = %v, want %v", l.Damage(), want)
	}
	// A second dip is charged separately, at its own depth.
	for _, soc := range []float64{0.8, 1.0} {
		l.Observe(soc)
	}
	want += LFP().DamagePerDischarge(0.2)
	if math.Abs(l.Damage()-want) > 1e-15 {
		t.Fatalf("damage after two excursions = %v, want %v", l.Damage(), want)
	}
}

func TestWearLedgerCloseFinalizesOpenExcursion(t *testing.T) {
	l, err := NewWearLedger(LFP())
	if err != nil {
		t.Fatal(err)
	}
	l.Observe(0.5)
	if l.Damage() != 0 {
		t.Fatal("open excursion charged early")
	}
	l.Close()
	want := LFP().DamagePerDischarge(0.5)
	if l.Damage() != want {
		t.Fatalf("Close charged %v, want %v", l.Damage(), want)
	}
	l.Close() // idempotent
	if l.Damage() != want {
		t.Fatal("Close not idempotent")
	}
}

func TestWearLedgerClampsNegativeSoC(t *testing.T) {
	l, err := NewWearLedger(LFP())
	if err != nil {
		t.Fatal(err)
	}
	l.Observe(-0.5)
	l.Observe(1)
	want := LFP().DamagePerDischarge(1)
	if math.Abs(l.Damage()-want) > 1e-15 {
		t.Fatalf("damage = %v, want full-depth %v", l.Damage(), want)
	}
}

func TestNewWearLedgerValidates(t *testing.T) {
	if _, err := NewWearLedger(Chemistry{}); err == nil {
		t.Fatal("invalid chemistry accepted")
	}
}

// Property: ledger damage equals the sum of per-excursion damages and is
// monotone non-decreasing in observations.
func TestWearLedgerMonotoneProperty(t *testing.T) {
	f := func(socs []uint8) bool {
		l, err := NewWearLedger(LFP())
		if err != nil {
			return false
		}
		prev := 0.0
		for _, raw := range socs {
			l.Observe(float64(raw) / 255)
			if l.Damage() < prev {
				return false
			}
			prev = l.Damage()
		}
		l.Close()
		return l.Damage() >= prev
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: shallower excursions never cost more than deeper ones.
func TestDamageMonotoneInDepthProperty(t *testing.T) {
	lfp := LFP()
	f := func(a, b uint8) bool {
		da, db := float64(a)/255, float64(b)/255
		if da > db {
			da, db = db, da
		}
		return lfp.DamagePerDischarge(da) <= lfp.DamagePerDischarge(db)+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
