package faults

import (
	"time"

	"dcsprint/internal/power"
	"dcsprint/internal/tes"
	"dcsprint/internal/units"
)

// ChillerControl is the hook through which the injector degrades the
// chiller plant; the sprinting controller implements it.
type ChillerControl interface {
	// SetChillerHealth sets the remaining heat-absorption capacity as a
	// fraction of nominal in [0, 1].
	SetChillerHealth(frac float64)
}

// Injector replays a Schedule against the physical facility models. It is
// advanced once per simulation tick, before the controller plans, so a
// fault is visible (physically and through the SensorBus) from the tick it
// fires.
type Injector struct {
	sched *Schedule
	tree  *power.Tree
	tank  *tes.Tank // nil when the facility has no TES
	bus   *SensorBus

	chiller ChillerControl

	now  time.Duration
	next int // index of the first un-applied event

	leakRate  units.Watts
	leakUntil time.Duration // 0 means no end

	supplyFrac  float64
	supplyUntil time.Duration

	valveUntil   time.Duration // 0 means no pending un-stick
	chillerUntil time.Duration // 0 means no pending restore

	applied int

	// onApply is the optional probe installed by Instrument.
	onApply func(Event)
}

// NewInjector returns an injector over the schedule. The bus may be nil
// when no sensor corruption is wanted; sensor events are then dropped. The
// tank may be nil.
func NewInjector(sched *Schedule, tree *power.Tree, tank *tes.Tank, bus *SensorBus) *Injector {
	return &Injector{sched: sched, tree: tree, tank: tank, bus: bus, supplyFrac: 1}
}

// BindChiller attaches the chiller-degradation hook (the controller).
func (in *Injector) BindChiller(c ChillerControl) { in.chiller = c }

// Now returns the injector clock.
func (in *Injector) Now() time.Duration { return in.now }

// Applied returns how many events have fired so far.
func (in *Injector) Applied() int { return in.applied }

// SupplyFraction returns the current utility-feed fraction of the DC
// breaker rating: 1 outside grid faults.
func (in *Injector) SupplyFraction() float64 { return in.supplyFrac }

// Advance moves the injector clock by dt, fires every event due at or
// before the new time, applies continuous effects (tank leak) and expires
// windowed component faults.
func (in *Injector) Advance(dt time.Duration) {
	if dt <= 0 {
		return
	}
	in.now += dt
	for in.next < len(in.sched.Events) && in.sched.Events[in.next].At <= in.now {
		in.apply(in.sched.Events[in.next])
		if in.onApply != nil {
			in.onApply(in.sched.Events[in.next])
		}
		in.next++
		in.applied++
	}

	// Continuous effects and window expiries.
	if in.leakRate > 0 && in.tank != nil {
		if in.leakUntil == 0 || in.now <= in.leakUntil {
			in.tank.Drain(units.ForDuration(in.leakRate, dt.Seconds()))
		} else {
			in.leakRate = 0
		}
	}
	if in.supplyFrac < 1 && in.now > in.supplyUntil {
		in.supplyFrac = 1
	}
	if in.valveUntil > 0 && in.now > in.valveUntil {
		in.valveUntil = 0
		if in.tank != nil {
			in.tank.SetValveStuck(false)
		}
	}
	if in.chillerUntil > 0 && in.now > in.chillerUntil {
		in.chillerUntil = 0
		if in.chiller != nil {
			in.chiller.SetChillerHealth(1)
		}
	}
}

// apply fires one event.
func (in *Injector) apply(ev Event) {
	switch ev.Kind {
	case KindBatteryFail:
		for _, g := range in.groups(ev.Group) {
			_, u := in.tree.Own(g)
			u.Fail()
		}
	case KindBatteryFade:
		for _, g := range in.groups(ev.Group) {
			_, u := in.tree.Own(g)
			u.Fade(ev.Frac)
		}
	case KindTESValveStuck:
		if in.tank != nil {
			in.tank.SetValveStuck(true)
			if ev.Dur > 0 {
				in.valveUntil = ev.At + ev.Dur
			} else {
				in.valveUntil = 0
			}
		}
	case KindTESLeak:
		in.leakRate = ev.Rate
		if ev.Dur > 0 {
			in.leakUntil = ev.At + ev.Dur
		} else {
			in.leakUntil = 0
		}
	case KindChillerFail:
		if in.chiller != nil {
			in.chiller.SetChillerHealth(ev.Frac)
			if ev.Dur > 0 {
				in.chillerUntil = ev.At + ev.Dur
			} else {
				in.chillerUntil = 0
			}
		}
	case KindGridCurtail:
		in.supplyFrac = ev.Frac
		in.supplyUntil = ev.At + ev.Dur
	case KindBreakerDerate:
		if ev.Group == GroupAll {
			in.tree.DCBreaker.Derate(ev.Frac)
		} else if ev.Group < in.tree.Groups() {
			b, _ := in.tree.Own(ev.Group)
			b.Derate(ev.Frac)
		}
	default:
		if ev.Kind.SensorFault() && in.bus != nil {
			in.bus.Apply(ev)
		}
	}
}

// groups expands a group selector against the tree width, dropping targets
// that do not exist.
func (in *Injector) groups(sel int) []int {
	n := in.tree.Groups()
	if sel == GroupAll {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	if sel < 0 || sel >= n {
		return nil
	}
	return []int{sel}
}
