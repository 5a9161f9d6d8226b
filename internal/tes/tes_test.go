package tes

import (
	"math"
	"testing"
	"testing/quick"

	"dcsprint/internal/units"
)

func newTank(t *testing.T, cfg Config) *Tank {
	t.Helper()
	tank, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tank
}

func TestDefaultTankTwelveMinutes(t *testing.T) {
	// §VI-A: "The TES tank is able to take over the cooling load for 12
	// minutes when the servers consume the peak normal power."
	const peak = 10 * units.Megawatt
	tank := newTank(t, DefaultTank(peak))
	mins := 0
	for ; mins < 30; mins++ {
		if got := tank.Discharge(peak, 60); got < peak {
			break
		}
	}
	if mins != 12 {
		t.Fatalf("tank carried peak load for %d min, want 12", mins)
	}
	if !tank.Empty() {
		t.Fatal("tank should be empty after 12 minutes at peak")
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"default", DefaultTank(units.Megawatt), true},
		{"zero capacity", Config{HeatCapacity: 0, ChillerSavingFraction: 0.5}, false},
		{"negative max rate", Config{HeatCapacity: 1, MaxRate: -1}, false},
		{"negative recharge", Config{HeatCapacity: 1, RechargeRate: -1}, false},
		{"saving fraction > 1", Config{HeatCapacity: 1, ChillerSavingFraction: 1.5}, false},
		{"saving fraction < 0", Config{HeatCapacity: 1, ChillerSavingFraction: -0.5}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.cfg.Validate(); (err == nil) != tt.ok {
				t.Fatalf("Validate = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestDischargeRespectsMaxRate(t *testing.T) {
	tank := newTank(t, Config{HeatCapacity: 1e6, MaxRate: 100})
	if got := tank.Discharge(500, 1); got != 100 {
		t.Fatalf("Discharge = %v, want rate-limited 100", got)
	}
}

func TestDischargeDrainsExactly(t *testing.T) {
	tank := newTank(t, Config{HeatCapacity: 1000})
	got := tank.Discharge(1500, 1)
	if math.Abs(float64(got-1000)) > 1e-9 {
		t.Fatalf("Discharge on low tank = %v, want 1000", got)
	}
	if !tank.Empty() {
		t.Fatal("tank not empty")
	}
	if got := tank.Discharge(10, 1); got != 0 {
		t.Fatalf("Discharge from empty = %v, want 0", got)
	}
}

func TestRecharge(t *testing.T) {
	tank := newTank(t, Config{HeatCapacity: 1000, RechargeRate: 100})
	tank.Discharge(500, 1)
	if got := tank.Recharge(500, 1); got != 100 {
		t.Fatalf("Recharge = %v, want rate-limited 100", got)
	}
	// Fill the remaining 400 J of room.
	if got := tank.Recharge(100, 3); got != 100 {
		t.Fatalf("Recharge = %v, want 100", got)
	}
	if got := tank.Recharge(100, 2); math.Abs(float64(got-50)) > 1e-9 {
		t.Fatalf("topping recharge = %v, want 50 (100 J of room over 2 s)", got)
	}
	if tank.SoC() != 1 {
		t.Fatalf("SoC = %v, want 1", tank.SoC())
	}
	if got := tank.Recharge(10, 1); got != 0 {
		t.Fatalf("Recharge when full = %v, want 0", got)
	}
}

func TestNonPositiveRequests(t *testing.T) {
	tank := newTank(t, Config{HeatCapacity: 1000})
	if tank.Discharge(0, 1) != 0 || tank.Discharge(-1, 1) != 0 {
		t.Error("non-positive discharge must absorb 0")
	}
	if tank.Discharge(10, 0) != 0 {
		t.Error("zero dt must absorb 0")
	}
	if tank.Recharge(0, 1) != 0 || tank.Recharge(5, -1) != 0 {
		t.Error("non-positive recharge must accept 0")
	}
	if tank.MaxAbsorb(0) != 0 {
		t.Error("MaxAbsorb(0) must be 0")
	}
}

func TestChillerPowerWhileDischarging(t *testing.T) {
	// §V-C: "up to 2/3 of the cooling power can be saved by using TES to
	// replace the chiller, while the rest 1/3 is consumed by the pumps,
	// valves and CRAC fans."
	tank := newTank(t, DefaultTank(10*units.Megawatt))
	normal := units.Watts(3 * units.Megawatt)
	got := tank.ChillerPowerWhileDischarging(normal)
	if math.Abs(float64(got-units.Megawatt)) > 1 {
		t.Fatalf("chiller power while TES active = %v, want ~1 MW (1/3)", got)
	}
	if got := tank.ChillerPowerWhileDischarging(0); got != 0 {
		t.Fatalf("zero normal cooling power: got %v", got)
	}
	if got := tank.ChillerPowerWhileDischarging(-5); got != 0 {
		t.Fatalf("negative normal cooling power: got %v", got)
	}
}

// Property: SoC stays in [0,1]; absorbed heat never exceeds the request;
// total heat absorbed never exceeds capacity plus recharge.
func TestTankInvariantProperty(t *testing.T) {
	f := func(ops []int16) bool {
		tank, err := New(Config{HeatCapacity: 50000, MaxRate: 5000, RechargeRate: 2000, ChillerSavingFraction: 0.66})
		if err != nil {
			return false
		}
		var absorbed, recharged float64
		for _, op := range ops {
			if op >= 0 {
				got := tank.Discharge(units.Watts(op), 1)
				if got > units.Watts(op) {
					return false
				}
				absorbed += float64(got)
			} else {
				recharged += float64(tank.Recharge(units.Watts(-op), 1))
			}
			if tank.SoC() < -1e-9 || tank.SoC() > 1+1e-9 {
				return false
			}
		}
		return absorbed <= 50000+recharged+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
