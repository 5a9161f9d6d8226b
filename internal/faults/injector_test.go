package faults

import (
	"strings"
	"testing"
	"time"

	"dcsprint/internal/breaker"
	"dcsprint/internal/cooling"
	"dcsprint/internal/power"
	"dcsprint/internal/tes"
	"dcsprint/internal/units"
	"dcsprint/internal/ups"
)

// rig is a small physical facility for injector and sensor-bus tests:
// 1000 servers in 5 PDU groups with the paper's default components.
type rig struct {
	tree *power.Tree
	room *cooling.Room
	tank *tes.Tank
	bus  *SensorBus
}

func newRig(t *testing.T) *rig {
	t.Helper()
	tree, err := power.New(power.Config{
		Servers:          1000,
		ServersPerPDU:    200,
		ServerPeakNormal: 55,
		PDUHeadroom:      0.25,
		DCHeadroom:       0.10,
		PUE:              1.53,
		Curve:            breaker.Bulletin1489A(),
		Battery:          ups.DefaultServerBattery(),
	})
	if err != nil {
		t.Fatalf("power.New: %v", err)
	}
	room, err := cooling.NewRoom(cooling.Default(tree.PeakNormalIT()))
	if err != nil {
		t.Fatalf("cooling.NewRoom: %v", err)
	}
	tank, err := tes.New(tes.DefaultTank(tree.PeakNormalIT()))
	if err != nil {
		t.Fatalf("tes.New: %v", err)
	}
	return &rig{tree: tree, room: room, tank: tank,
		bus: NewSensorBus(tree, room, tank)}
}

func (r *rig) inject(t *testing.T, spec string) *Injector {
	t.Helper()
	s, err := Parse(strings.NewReader(spec))
	if err != nil {
		t.Fatalf("parse %q: %v", spec, err)
	}
	return NewInjector(s, r.tree, r.tank, r.bus)
}

// fakeChiller records the injector's chiller-health commands.
type fakeChiller struct{ frac float64 }

func (f *fakeChiller) SetChillerHealth(frac float64) { f.frac = frac }

func TestInjectorBatteryFaults(t *testing.T) {
	r := newRig(t)
	in := r.inject(t, "5s battery-fail group=2\n10s battery-fade group=0 frac=0.5\n")
	in.Advance(4 * time.Second)
	if u := r.tree.UPS(2); u.Failed() {
		t.Fatal("battery failed before the event time")
	}
	in.Advance(time.Second) // now=5s: fail fires
	if u := r.tree.UPS(2); !u.Failed() {
		t.Fatal("battery-fail did not fire")
	}
	if u := r.tree.UPS(2); u.MaxOutput(1) != 0 {
		t.Fatalf("failed battery still offers %v", u.MaxOutput(1))
	}
	u1 := r.tree.UPS(1)
	full := u1.TotalEnergy()
	in.Advance(5 * time.Second) // now=10s: fade fires
	u0 := r.tree.UPS(0)
	if got := u0.TotalEnergy(); got >= full {
		t.Fatalf("faded capacity %v not below nominal %v", got, full)
	}
	u1 = r.tree.UPS(1)
	if got := u1.TotalEnergy(); got != full {
		t.Fatal("fade leaked to an untargeted group")
	}
	if in.Applied() != 2 {
		t.Fatalf("applied = %d, want 2", in.Applied())
	}
}

func TestInjectorTESValveWindow(t *testing.T) {
	r := newRig(t)
	in := r.inject(t, "5s tes-valve-stuck dur=10s\n")
	in.Advance(5 * time.Second)
	if !r.tank.ValveStuck() {
		t.Fatal("valve not stuck at 5s")
	}
	if got := r.tank.MaxAbsorb(1); got != 0 {
		t.Fatalf("stuck valve still absorbs %v", got)
	}
	in.Advance(9 * time.Second) // now=14s, window ends at 15s
	if !r.tank.ValveStuck() {
		t.Fatal("valve freed early")
	}
	in.Advance(2 * time.Second) // now=16s
	if r.tank.ValveStuck() {
		t.Fatal("valve not freed after the window")
	}
}

func TestInjectorTESLeakDrainsTank(t *testing.T) {
	r := newRig(t)
	in := r.inject(t, "0s tes-leak rate=100000\n")
	start := r.tank.Remaining()
	for i := 0; i < 60; i++ {
		in.Advance(time.Second)
	}
	drained := start - r.tank.Remaining()
	want := units.Joules(100000 * 60)
	if drained < want*0.99 || drained > want*1.01 {
		t.Fatalf("leak drained %v in 60s, want ~%v", drained, want)
	}
}

func TestInjectorChillerWindow(t *testing.T) {
	r := newRig(t)
	in := r.inject(t, "5s chiller-fail frac=0.6 dur=10s\n")
	ch := &fakeChiller{frac: 1}
	in.BindChiller(ch)
	in.Advance(5 * time.Second)
	if ch.frac != 0.6 {
		t.Fatalf("chiller health = %v, want 0.6", ch.frac)
	}
	in.Advance(11 * time.Second)
	if ch.frac != 1 {
		t.Fatalf("chiller health = %v after window, want 1", ch.frac)
	}
}

func TestInjectorGridCurtailWindow(t *testing.T) {
	r := newRig(t)
	in := r.inject(t, "10s grid-curtail frac=0.8 dur=30s\n")
	if in.SupplyFraction() != 1 {
		t.Fatal("supply curtailed before the event")
	}
	in.Advance(10 * time.Second)
	if in.SupplyFraction() != 0.8 {
		t.Fatalf("supply fraction = %v, want 0.8", in.SupplyFraction())
	}
	in.Advance(29 * time.Second)
	if in.SupplyFraction() != 0.8 {
		t.Fatal("curtailment lifted early")
	}
	in.Advance(2 * time.Second)
	if in.SupplyFraction() != 1 {
		t.Fatalf("supply fraction = %v after window, want 1", in.SupplyFraction())
	}
}

func TestInjectorBreakerDerate(t *testing.T) {
	r := newRig(t)
	dc := r.tree.DCBreaker.Rated
	pdu := r.tree.Breaker(3).Rated
	in := r.inject(t, "5s breaker-derate level=dc frac=0.9\n5s breaker-derate level=pdu group=3 frac=0.8\n")
	in.Advance(5 * time.Second)
	if got := r.tree.DCBreaker.Rated; got != dc*0.9 {
		t.Fatalf("DC rating = %v, want %v", got, dc*0.9)
	}
	if got := r.tree.Breaker(3).Rated; got != pdu*0.8 {
		t.Fatalf("PDU rating = %v, want %v", got, pdu*0.8)
	}
	if got := r.tree.Breaker(0).Rated; got != pdu {
		t.Fatal("derate leaked to an untargeted PDU")
	}
}

func TestInjectorDropsOutOfRangeGroups(t *testing.T) {
	r := newRig(t)
	// Group 99 does not exist in a 5-group facility; the event must be a
	// no-op, not a panic.
	in := r.inject(t, "1s battery-fail group=99\n1s breaker-derate level=pdu group=99 frac=0.9\n")
	in.Advance(2 * time.Second)
	for g := 0; g < r.tree.Groups(); g++ {
		if u := r.tree.UPS(g); u.Failed() {
			t.Fatalf("group %d failed from an out-of-range event", g)
		}
	}
}
