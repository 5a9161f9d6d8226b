package units

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestWattHours(t *testing.T) {
	tests := []struct {
		name string
		wh   float64
		want Joules
	}{
		{"zero", 0, 0},
		{"one watt-hour", 1, 3600},
		{"server UPS 5.5 Wh", 5.5, 19800},
		{"negative (discharge accounting)", -2, -7200},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := WattHours(tt.wh); got != tt.want {
				t.Errorf("WattHours(%v) = %v, want %v", tt.wh, got, tt.want)
			}
		})
	}
}

func TestAmpHoursEnergy(t *testing.T) {
	// The paper's 0.5 Ah server battery at a 12 V bus holds 6 Wh = 21.6 kJ,
	// roughly six minutes of the 55 W peak-normal server power.
	got := AmpHours(0.5).Energy(12)
	if want := Joules(21600); got != want {
		t.Fatalf("0.5Ah@12V = %v, want %v", got, want)
	}
	sustain := time.Duration(float64(got)/55) * time.Second
	if sustain < 6*time.Minute || sustain > 7*time.Minute {
		t.Fatalf("0.5Ah sustains 55W for %v, want ~6.5 min", sustain)
	}
}

func TestForDurationAndOver(t *testing.T) {
	e := ForDuration(100, 30)
	if e != 3000 {
		t.Fatalf("ForDuration(100W, 30s) = %v, want 3000 J", e)
	}
	if p := e.Over(30); p != 100 {
		t.Fatalf("Over round-trip = %v, want 100 W", p)
	}
	if p := Joules(5).Over(0); p != 0 {
		t.Fatalf("Over(0) = %v, want 0", p)
	}
	if p := Joules(5).Over(-1); p != 0 {
		t.Fatalf("Over(negative) = %v, want 0", p)
	}
}

func TestJoulesWattHours(t *testing.T) {
	if got := Joules(7200).WattHours(); got != 2 {
		t.Fatalf("7200 J = %v Wh, want 2", got)
	}
}

func TestWattsString(t *testing.T) {
	tests := []struct {
		w    Watts
		want string
	}{
		{55, "55.0 W"},
		{13750, "13.750 kW"},
		{10e6, "10.000 MW"},
		{-2500, "-2.500 kW"},
		{0, "0.0 W"},
	}
	for _, tt := range tests {
		if got := tt.w.String(); got != tt.want {
			t.Errorf("Watts(%v).String() = %q, want %q", float64(tt.w), got, tt.want)
		}
	}
}

func TestJoulesString(t *testing.T) {
	tests := []struct {
		j    Joules
		want string
	}{
		{500, "500.0 J"},
		{19800, "19.800 kJ"},
		{7.2e9, "7.200 GJ"},
		{3.5e6, "3.500 MJ"},
	}
	for _, tt := range tests {
		if got := tt.j.String(); got != tt.want {
			t.Errorf("Joules(%v).String() = %q, want %q", float64(tt.j), got, tt.want)
		}
	}
}

func TestCelsiusString(t *testing.T) {
	if got := Celsius(27.125).String(); got != "27.12°C" {
		t.Fatalf("got %q", got)
	}
}

func TestClamp(t *testing.T) {
	tests := []struct {
		v, lo, hi, want float64
	}{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, tt := range tests {
		if got := Clamp(tt.v, tt.lo, tt.hi); got != tt.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", tt.v, tt.lo, tt.hi, got, tt.want)
		}
	}
}

func TestClampProperties(t *testing.T) {
	inRange := func(v float64) bool {
		got := Clamp(v, -100, 100)
		return got >= -100 && got <= 100
	}
	if err := quick.Check(inRange, nil); err != nil {
		t.Error(err)
	}
	idempotent := func(v float64) bool {
		once := Clamp(v, -5, 5)
		return Clamp(once, -5, 5) == once
	}
	if err := quick.Check(idempotent, nil); err != nil {
		t.Error(err)
	}
}

func TestEnergyPowerRoundTripProperty(t *testing.T) {
	f := func(p float64, secs uint16) bool {
		if secs == 0 {
			return true
		}
		p = math.Mod(p, 1e7)
		d := float64(secs)
		back := ForDuration(Watts(p), d).Over(d)
		return math.Abs(float64(back)-p) < 1e-6*math.Max(1, math.Abs(p))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
