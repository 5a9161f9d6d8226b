package ups

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"dcsprint/internal/units"
)

func newFull(t *testing.T, cfg BatteryConfig) *Battery {
	t.Helper()
	b, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return b
}

func idealConfig() BatteryConfig {
	return BatteryConfig{Capacity: 0.5, BusVoltage: 12, DischargeEfficiency: 1}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*BatteryConfig)
		ok   bool
	}{
		{"default", func(c *BatteryConfig) {}, true},
		{"zero capacity", func(c *BatteryConfig) { c.Capacity = 0 }, false},
		{"negative voltage", func(c *BatteryConfig) { c.BusVoltage = -12 }, false},
		{"negative discharge limit", func(c *BatteryConfig) { c.MaxDischarge = -1 }, false},
		{"efficiency above 1", func(c *BatteryConfig) { c.DischargeEfficiency = 1.1 }, false},
		{"negative efficiency", func(c *BatteryConfig) { c.DischargeEfficiency = -0.1 }, false},
		{"MinSoC = 1", func(c *BatteryConfig) { c.MinSoC = 1 }, false},
		{"MinSoC valid", func(c *BatteryConfig) { c.MinSoC = 0.2 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultServerBattery()
			tt.mut(&cfg)
			if err := cfg.Validate(); (err == nil) != tt.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestPaperBatterySustainsSixMinutes(t *testing.T) {
	// §VI-A: "The default battery capacity is 0.5 Ah, which can sustain the
	// peak normal power of a server (i.e., 55 W) for about 6 minutes."
	b := newFull(t, DefaultServerBattery())
	secs := 0
	for ; secs < 600; secs++ {
		if got := b.Discharge(55, 1); got < 55 {
			break
		}
	}
	if secs < 330 || secs > 420 {
		t.Fatalf("0.5 Ah battery sustained 55 W for %d s, want ~360 s", secs)
	}
}

func TestNewGroupScales(t *testing.T) {
	single := newFull(t, idealConfig())
	group, err := NewGroup(200, idealConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := group.TotalEnergy(), single.TotalEnergy()*200; got != want {
		t.Fatalf("group energy = %v, want %v", got, want)
	}
	if _, err := NewGroup(0, idealConfig()); err == nil {
		t.Fatal("NewGroup(0) accepted")
	}
	if _, err := NewGroup(-3, idealConfig()); err == nil {
		t.Fatal("NewGroup(-3) accepted")
	}
}

func TestDischargeAccounting(t *testing.T) {
	b := newFull(t, idealConfig()) // 21.6 kJ
	got := b.Discharge(1000, 1)
	if got != 1000 {
		t.Fatalf("Discharge = %v, want 1000", got)
	}
	if b.Stored() != 20600 {
		t.Fatalf("Stored = %v, want 20600 J", b.Stored())
	}
	if b.SoC() <= 0.95 || b.SoC() >= 0.96 {
		t.Fatalf("SoC = %v", b.SoC())
	}
}

func TestDischargeRespectsPowerLimit(t *testing.T) {
	cfg := idealConfig()
	cfg.MaxDischarge = 100
	b := newFull(t, cfg)
	if got := b.Discharge(500, 1); got != 100 {
		t.Fatalf("Discharge beyond limit = %v, want 100", got)
	}
}

func TestDischargeEmptiesExactly(t *testing.T) {
	b := newFull(t, idealConfig()) // 21.6 kJ
	// Ask for more than the battery holds in one second.
	got := b.Discharge(50000, 1)
	if math.Abs(float64(got-21600)) > 1e-6 {
		t.Fatalf("Discharge on near-empty = %v, want 21600", got)
	}
	if b.Stored() != 0 {
		t.Fatalf("Stored = %v, want 0", b.Stored())
	}
	if got := b.Discharge(10, 1); got != 0 {
		t.Fatalf("Discharge from empty = %v, want 0", got)
	}
}

func TestDischargeEfficiencyLoss(t *testing.T) {
	cfg := idealConfig()
	cfg.DischargeEfficiency = 0.9
	b := newFull(t, cfg)
	b.Discharge(900, 1) // delivers 900 J, drains 1000 J
	if math.Abs(float64(b.Stored()-20600)) > 1e-6 {
		t.Fatalf("Stored = %v, want 20600 (1000 J drained)", b.Stored())
	}
}

func TestMinSoCFloor(t *testing.T) {
	cfg := idealConfig()
	cfg.MinSoC = 0.5
	b := newFull(t, cfg)
	total := float64(b.TotalEnergy())
	drained := 0.0
	for i := 0; i < 100; i++ {
		drained += float64(b.Discharge(10000, 1))
	}
	if math.Abs(drained-total/2) > 1e-6 {
		t.Fatalf("drained %v past the 50%% floor (total %v)", drained, total)
	}
	if b.SoC() < 0.499 {
		t.Fatalf("SoC = %v fell below the floor", b.SoC())
	}
}

func TestRecharge(t *testing.T) {
	b := newFull(t, idealConfig())
	b.Discharge(10000, 1)
	if got := b.Recharge(5000, 1); got != 5000 {
		t.Fatalf("Recharge = %v, want 5000", got)
	}
	// Top off: only 5000 J of room remains.
	if got := b.Recharge(50000, 1); math.Abs(float64(got-5000)) > 1e-6 {
		t.Fatalf("Recharge to full = %v, want 5000", got)
	}
	if b.SoC() != 1 {
		t.Fatalf("SoC = %v, want 1", b.SoC())
	}
	if got := b.Recharge(10, 1); got != 0 {
		t.Fatalf("Recharge when full = %v, want 0", got)
	}
}

func TestRechargeRespectsLimit(t *testing.T) {
	cfg := idealConfig()
	cfg.MaxRecharge = 50
	b := newFull(t, cfg)
	b.Discharge(10000, 1)
	if got := b.Recharge(500, 1); got != 50 {
		t.Fatalf("Recharge beyond limit = %v, want 50", got)
	}
}

func TestZeroAndNegativeRequests(t *testing.T) {
	b := newFull(t, idealConfig())
	if b.Discharge(0, 1) != 0 || b.Discharge(-5, 1) != 0 {
		t.Error("non-positive discharge request must deliver 0")
	}
	if b.Discharge(5, 0) != 0 || b.Discharge(5, -1) != 0 {
		t.Error("non-positive dt must deliver 0")
	}
	if b.Recharge(0, 1) != 0 || b.Recharge(-5, 1) != 0 {
		t.Error("non-positive recharge request must accept 0")
	}
	if b.MaxOutput(0) != 0 {
		t.Error("MaxOutput(0) must be 0")
	}
}

// Property: SoC stays in [MinSoC-eps, 1] and delivered power never exceeds
// the request under arbitrary interleavings of discharge and recharge.
func TestBatteryInvariantProperty(t *testing.T) {
	f := func(ops []int16) bool {
		cfg := DefaultServerBattery()
		cfg.MinSoC = 0.1
		b, err := New(cfg)
		if err != nil {
			return false
		}
		for _, op := range ops {
			p := units.Watts(op)
			if op >= 0 {
				if got := b.Discharge(p, 1); got > p {
					return false
				}
			} else {
				if got := b.Recharge(-p, 1); got > -p {
					return false
				}
			}
			if b.SoC() < cfg.MinSoC-1e-9 || b.SoC() > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: energy is conserved — delivered energy equals drained energy
// times efficiency.
func TestEnergyConservationProperty(t *testing.T) {
	f := func(reqs []uint16) bool {
		cfg := idealConfig()
		cfg.DischargeEfficiency = 0.8
		b, err := New(cfg)
		if err != nil {
			return false
		}
		start := b.Stored()
		var delivered units.Joules
		for _, r := range reqs {
			delivered += units.ForDuration(b.Discharge(units.Watts(r), 1), 1)
		}
		drained := start - b.Stored()
		return math.Abs(float64(delivered)-0.8*float64(drained)) < 1e-6*math.Max(1, float64(drained))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFadeIgnoresNaN(t *testing.T) {
	tests := []struct {
		name string
		frac float64
		want float64 // fraction of the original capacity left
	}{
		{"half", 0.5, 0.5},
		{"NaN", math.NaN(), 1},
		{"negative clamps to zero", -1, 0},
		{"above one clamps to one", 2, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := newFull(t, idealConfig())
			full := b.TotalEnergy()
			b.Fade(tt.frac)
			if got, want := b.TotalEnergy(), units.Joules(tt.want)*full; got != want {
				t.Fatalf("Fade(%v): capacity %v, want %v", tt.frac, got, want)
			}
			if math.IsNaN(float64(b.Stored())) || math.IsNaN(float64(b.MaxOutput(1))) {
				t.Fatalf("Fade(%v) left NaN state", tt.frac)
			}
		})
	}
}

// TestSameMaxOutputCoversMaxOutput halves each configuration field in turn,
// and the stored energy, and requires SameMaxOutput to tell the batteries
// apart whenever MaxOutput does: a field MaxOutput starts to read must join
// the comparison.
func TestSameMaxOutputCoversMaxOutput(t *testing.T) {
	cfg := DefaultServerBattery()
	cfg.MinSoC = 0.1
	base := &Battery{cfg: cfg.scale(200)}
	base.stored = base.TotalEnergy() * 0.6
	if !base.SameMaxOutput(&Battery{cfg: base.cfg, stored: base.stored}) {
		t.Fatal("a battery's copy does not bound like it")
	}
	dts := []time.Duration{time.Second, 10 * time.Minute}
	check := func(what string, o *Battery) {
		t.Helper()
		for _, dt := range dts {
			if base.MaxOutput(dt.Seconds()) != o.MaxOutput(dt.Seconds()) && base.SameMaxOutput(o) {
				t.Errorf("halving %s changes MaxOutput(%v) but SameMaxOutput still reports true", what, dt)
			}
		}
	}
	check("the stored energy", &Battery{cfg: base.cfg, stored: base.stored / 2})
	fields := reflect.TypeOf(base.cfg)
	for i := 0; i < fields.NumField(); i++ {
		o := &Battery{cfg: base.cfg, stored: base.stored}
		f := reflect.ValueOf(&o.cfg).Elem().Field(i)
		f.SetFloat(f.Float() / 2)
		check(fields.Field(i).Name, o)
	}
}

// TestLockstepCoversState changes the stored energy, the wear ledger, the
// failed flag and each configuration field in turn, and requires Lockstep
// to tell the batteries apart. Batteries it reports alike stay alike under
// one request.
func TestLockstepCoversState(t *testing.T) {
	cfg := DefaultServerBattery()
	cfg.MinSoC = 0.1
	base := func() *Battery {
		b := &Battery{cfg: cfg.scale(200)}
		b.stored, b.discharged = b.TotalEnergy()*0.6, 1000
		return b
	}
	a := base()
	if b := base(); !a.Lockstep(b) || !b.Lockstep(a) {
		t.Fatal("a battery's copy is not in lockstep with it")
	}
	differ := map[string]*Battery{}
	b := base()
	b.stored /= 2
	differ["the stored energy"] = b
	b = base()
	b.discharged *= 2
	differ["the wear ledger"] = b
	b = base()
	b.failed = true
	differ["the failed flag"] = b
	fields := reflect.TypeOf(a.cfg)
	for i := 0; i < fields.NumField(); i++ {
		b := base()
		f := reflect.ValueOf(&b.cfg).Elem().Field(i)
		f.SetFloat(f.Float() / 2)
		differ[fields.Field(i).Name] = b
	}
	for what, b := range differ {
		if a.Lockstep(b) || b.Lockstep(a) {
			t.Errorf("halving %s leaves the batteries in lockstep", what)
		}
	}

	x, y := base(), base()
	for _, dt := range []time.Duration{time.Second, time.Minute} {
		for _, req := range []units.Watts{0, 500, 40000} {
			if p, q := x.Discharge(req, dt.Seconds()), y.Discharge(req, dt.Seconds()); p != q || x.State() != y.State() || !x.Lockstep(y) {
				t.Fatalf("Discharge(%v, %v): alike batteries delivered %v/%v, now %+v and %+v", req, dt, p, q, x.State(), y.State())
			}
			if p, q := x.Recharge(req/3, dt.Seconds()), y.Recharge(req/3, dt.Seconds()); p != q || x.State() != y.State() || !x.Lockstep(y) {
				t.Fatalf("Recharge(%v, %v): alike batteries accepted %v/%v", req/3, dt, p, q)
			}
		}
	}
}
