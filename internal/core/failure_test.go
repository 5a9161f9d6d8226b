package core

// Failure-injection tests: the controller's safety properties must survive
// component failures and telemetry corruption the planner did not
// anticipate — dead battery strings, a TES tank emptied mid-sprint, a grid
// that collapses without warning, and sensors that freeze, drop out or lie.
//
// The invariant throughout: no injected fault may cause a breaker trip or a
// room overheat. Faults may only reduce the work delivered.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dcsprint/internal/faults"
	"dcsprint/internal/units"
)

// faultedFacility is a test facility whose telemetry flows through a
// faults.SensorBus and whose components are attacked by a faults.Injector
// replaying the given spec.
type faultedFacility struct {
	*facility
	inj *faults.Injector
}

// newFaultedFacility builds a facility, routes its telemetry through a
// sensor bus, and arms an injector with the parsed spec (which may be empty
// for a supervised-but-healthy baseline).
func newFaultedFacility(t *testing.T, opts facilityOpts, spec string) *faultedFacility {
	t.Helper()
	f := newFacility(t, opts)
	bus := faults.NewSensorBus(f.tree, f.room, f.tank)
	f.ctl.AttachSensors(bus)
	sched, err := faults.Parse(strings.NewReader(spec))
	if err != nil {
		t.Fatalf("fault spec: %v", err)
	}
	inj := faults.NewInjector(sched, f.tree, f.tank, bus)
	inj.BindChiller(f.ctl)
	return &faultedFacility{facility: f, inj: inj}
}

// tick advances the injector then the controller, feeding any active grid
// curtailment through as a supply limit the way the simulation loop does.
func (f *faultedFacility) tick(demand float64, dt time.Duration) TickResult {
	f.inj.Advance(dt)
	in := Input{Demand: demand}
	if frac := f.inj.SupplyFraction(); frac < 1 {
		in.SupplyLimit = units.Watts(frac) * f.tree.DCBreaker.Rated
	}
	var res TickResult
	f.ctl.TickInput(in, dt, &res)
	return res
}

// failGroupBatteries builds the spec lines killing the first n battery
// strings at t=0.
func failGroupBatteries(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "0s battery-fail group=%d\n", i)
	}
	return b.String()
}

func TestSprintSurvivesPartialBatteryFailure(t *testing.T) {
	// Two of the five groups lose their battery strings before the burst.
	f := newFaultedFacility(t, facilityOpts{}, failGroupBatteries(2))
	var excess float64
	for i := 0; i < 600; i++ {
		res := f.tick(2.5, time.Second)
		if res.Tripped {
			t.Fatalf("tripped at %d with failed battery groups", i)
		}
		if res.RoomTemp >= 40 {
			t.Fatalf("overheated at %d", i)
		}
		if res.Delivered > 1 {
			excess += res.Delivered - 1
		}
	}
	if excess == 0 {
		t.Fatal("facility never sprinted despite three healthy groups")
	}
	// A supervised-but-healthy facility serves more excess work in total.
	// (It may sprint for *less time* — losing batteries acts like an
	// implicit degree bound, stretching a smaller budget thinner — so the
	// metric is work, not duration.)
	healthy := newFaultedFacility(t, facilityOpts{}, "")
	var healthyExcess float64
	for i := 0; i < 600; i++ {
		if res := healthy.tick(2.5, time.Second); res.Delivered > 1 {
			healthyExcess += res.Delivered - 1
		}
	}
	if excess > healthyExcess {
		t.Fatalf("degraded facility served more excess work (%.1f) than healthy (%.1f)", excess, healthyExcess)
	}
}

func TestSprintSurvivesAllBatteriesFailed(t *testing.T) {
	f := newFaultedFacility(t, facilityOpts{}, "0s battery-fail group=all\n")
	for i := 0; i < 600; i++ {
		res := f.tick(2.5, time.Second)
		if res.Tripped {
			t.Fatalf("tripped at %d with no batteries (CB+TES only)", i)
		}
		if res.UPSPower > 0 {
			t.Fatalf("UPS power %v reported from dead batteries", res.UPSPower)
		}
	}
}

func TestTESDrainedMidSprint(t *testing.T) {
	// A massive leak at 4 minutes (well into the sprint) dumps the tank's
	// remaining cold in about a minute. The controller must fall back
	// without tripping or overheating, and must not report phase 3 on an
	// empty tank.
	f := newFaultedFacility(t, facilityOpts{}, "4m tes-leak rate=2000000\n")
	sawTES := false
	for i := 0; i < 900; i++ {
		res := f.tick(1.8, time.Second)
		if res.Phase == 3 {
			sawTES = true
		}
		if res.Tripped {
			t.Fatalf("tripped at %d after TES failure", i)
		}
		if res.RoomTemp >= 40 {
			t.Fatalf("overheated at %d after TES failure: %v", i, res.RoomTemp)
		}
		if f.tank.Empty() && res.Phase == 3 {
			t.Fatalf("phase 3 reported at %d with an empty tank", i)
		}
	}
	if !sawTES {
		t.Fatal("setup: never reached phase 3 before the leak")
	}
	if !f.tank.Empty() {
		t.Fatal("setup: leak did not drain the tank")
	}
}

func TestSuddenSupplyCollapseMidSprint(t *testing.T) {
	// The grid collapses to 40% two minutes into a sprint with no warning;
	// the controller must shed the sprint rather than trip, and keep
	// serving what it can.
	f := newFaultedFacility(t, facilityOpts{}, "2m grid-curtail frac=0.4 dur=2m\n")
	rated := f.tree.DCBreaker.Rated
	for i := 0; i < 240; i++ {
		res := f.tick(2.0, time.Second)
		if res.Tripped {
			t.Fatalf("tripped at %d", i)
		}
		if i >= 120 {
			if res.Delivered < 1-1e-9 {
				t.Fatalf("shed below normal capacity at %d: %v", i, res.Delivered)
			}
			if res.DCLoad > rated*40/100+1e-6 {
				t.Fatalf("load %v exceeds the collapsed supply", res.DCLoad)
			}
		}
	}
}

// TestFaultMatrixNoTripNoOverheat drives a 12-minute 2x burst and injects
// each fault kind in each sprint phase (phase 1 breaker overload at 15s,
// phase 2 UPS discharge at 2m, phase 3 TES at 5m). Whatever the fault and
// whenever it lands, the run must end with no trip and no overheat.
func TestFaultMatrixNoTripNoOverheat(t *testing.T) {
	kinds := []struct{ name, line string }{
		{"battery-fail", "battery-fail group=all"},
		{"battery-fade", "battery-fade group=all frac=0.4"},
		{"tes-valve-stuck", "tes-valve-stuck"},
		{"tes-leak", "tes-leak rate=100000"},
		{"chiller-fail", "chiller-fail frac=0.7"},
		{"grid-curtail", "grid-curtail frac=0.8 dur=1m"},
		{"breaker-derate-dc", "breaker-derate level=dc frac=0.85"},
		{"breaker-derate-pdu", "breaker-derate level=pdu group=0 frac=0.85"},
		{"sensor-stale-room", "sensor-stale sensor=room-temp dur=2m"},
		{"sensor-dropout-soc", "sensor-dropout sensor=ups-soc dur=2m"},
		{"sensor-noise-room", "sensor-noise sensor=room-temp sigma=0.5 dur=2m"},
		{"sensor-stuck-tes", "sensor-stuck sensor=tes-level dur=2m"},
	}
	phases := []struct{ name, at string }{
		{"phase1", "15s"},
		{"phase2", "2m"},
		{"phase3", "5m"},
	}
	for _, k := range kinds {
		for _, ph := range phases {
			t.Run(k.name+"/"+ph.name, func(t *testing.T) {
				f := newFaultedFacility(t, facilityOpts{}, ph.at+" "+k.line+"\n")
				// 12 minutes of burst, then 5 of cool-down.
				for i := 0; i < 1020; i++ {
					demand := 2.0
					if i >= 720 {
						demand = 0.5
					}
					res := f.tick(demand, time.Second)
					if res.Tripped {
						t.Fatalf("tripped at t=%ds", i)
					}
					if res.RoomTemp >= 40 {
						t.Fatalf("overheated at t=%ds: %v", i, res.RoomTemp)
					}
					if res.Dead {
						t.Fatalf("dead at t=%ds", i)
					}
				}
			})
		}
	}
}

// TestStuckRoomTempAbortsSprintCleanly is the headline supervision case: the
// room-temperature sensor freezes at its 30s value during a 2.5x burst. The
// controller must distrust the sensor, step the sprinting degree down at the
// degrade rate (no instantaneous collapse), abort the sprint cleanly and
// keep serving normal load — all without a trip or an overheat.
func TestStuckRoomTempAbortsSprintCleanly(t *testing.T) {
	f := newFaultedFacility(t, facilityOpts{}, "30s sensor-stuck sensor=room-temp dur=10m\n")
	var prev TickResult
	var distrustTick = -1
	for i := 0; i < 600; i++ {
		res := f.tick(2.5, time.Second)
		if res.Tripped {
			t.Fatalf("tripped at %d", i)
		}
		if res.RoomTemp >= 40 {
			t.Fatalf("overheated at %d: %v", i, res.RoomTemp)
		}
		if distrustTick < 0 {
			for _, e := range f.ctl.Events() {
				if e.Kind == EventSensorDistrusted {
					distrustTick = i
				}
			}
		}
		// Once degraded, the degree ramps down — it never steps by more
		// than the degrade rate per second.
		if distrustTick >= 0 && i > distrustTick && prev.Degree > res.Degree {
			if drop := prev.Degree - res.Degree; drop > DefaultDegradeRate+1e-6 {
				t.Fatalf("degree collapsed %v -> %v at %d (max step %v)",
					prev.Degree, res.Degree, i, DefaultDegradeRate)
			}
		}
		prev = res
	}
	if distrustTick < 0 {
		t.Fatalf("stuck room sensor never distrusted; events: %v", f.ctl.Events())
	}
	kinds := map[EventKind]string{}
	for _, e := range f.ctl.Events() {
		if _, ok := kinds[e.Kind]; !ok {
			kinds[e.Kind] = e.Detail
		}
	}
	if d, ok := kinds[EventSensorDistrusted]; !ok || !strings.Contains(d, "room-temp") {
		t.Fatalf("no room-temp distrust event; events: %v", f.ctl.Events())
	}
	if _, ok := kinds[EventSprintAborted]; !ok {
		t.Fatalf("no sprint-aborted event; events: %v", f.ctl.Events())
	}
	// The abort re-entered normal mode cleanly: degree 1, full normal load
	// served, no trip.
	if prev.Degree > 1+1e-9 {
		t.Fatalf("still sprinting at degree %v after abort", prev.Degree)
	}
	if prev.Delivered < 1-1e-9 {
		t.Fatalf("normal load not served after abort: %v", prev.Delivered)
	}
}

// TestFrozenSoCAbortsSprintCleanly: the state-of-charge telemetry freezes
// while the UPS is discharging mid-burst. The supervisor must notice the
// frozen channel, substitute the worst case (empty batteries), and abort
// the sprint early without tripping.
func TestFrozenSoCAbortsSprintCleanly(t *testing.T) {
	f := newFaultedFacility(t, facilityOpts{}, "90s sensor-stuck sensor=ups-soc dur=10m\n")
	for i := 0; i < 600; i++ {
		res := f.tick(2.5, time.Second)
		if res.Tripped {
			t.Fatalf("tripped at %d", i)
		}
		if res.RoomTemp >= 40 {
			t.Fatalf("overheated at %d: %v", i, res.RoomTemp)
		}
	}
	var distrusted, aborted bool
	var distrustAt, abortAt time.Duration
	for _, e := range f.ctl.Events() {
		switch e.Kind {
		case EventSensorDistrusted:
			if strings.Contains(e.Detail, "ups-soc") && !distrusted {
				distrusted, distrustAt = true, e.Time
			}
		case EventSprintAborted:
			if !aborted {
				aborted, abortAt = true, e.Time
			}
		}
	}
	if !distrusted {
		t.Fatalf("frozen SoC never distrusted; events: %v", f.ctl.Events())
	}
	if !aborted {
		t.Fatalf("no sprint-aborted event; events: %v", f.ctl.Events())
	}
	if abortAt < distrustAt {
		t.Fatalf("abort at %v precedes distrust at %v", abortAt, distrustAt)
	}
	// The abort is early: well before the burst window ends.
	if abortAt > 5*time.Minute {
		t.Fatalf("abort at %v is not an early abort", abortAt)
	}
}

// TestSensorRecoveryRestoresSprinting: a transient dropout distrusts a
// channel; once readings come back clean the supervisor re-trusts it and
// the degree cap ramps back up.
func TestSensorRecoveryRestoresSprinting(t *testing.T) {
	f := newFaultedFacility(t, facilityOpts{}, "60s sensor-dropout sensor=room-temp dur=30s\n")
	var lateExcess float64
	for i := 0; i < 600; i++ {
		res := f.tick(2.0, time.Second)
		if res.Tripped {
			t.Fatalf("tripped at %d", i)
		}
		if i > 120 && res.Delivered > 1 {
			lateExcess += res.Delivered - 1
		}
	}
	var restored bool
	for _, e := range f.ctl.Events() {
		if e.Kind == EventSensorRestored {
			restored = true
		}
	}
	if !restored {
		t.Fatalf("sensor never restored; events: %v", f.ctl.Events())
	}
	if lateExcess == 0 {
		t.Fatal("facility never resumed sprinting after the dropout cleared")
	}
}

func TestDemandSpikeBeyondEverything(t *testing.T) {
	// A pathological demand spike (10x) must be served at the chip
	// ceiling without any safety violation.
	f := newFacility(t, facilityOpts{})
	res := f.ctl.Tick(10, time.Second)
	if res.Tripped {
		t.Fatal("tripped on a demand spike")
	}
	max := f.ctl.cfg.Server.MaxThroughput()
	if res.Delivered > max {
		t.Fatalf("delivered %v beyond the ceiling %v", res.Delivered, max)
	}
}

func TestNegativeDemandIsSafe(t *testing.T) {
	f := newFacility(t, facilityOpts{})
	res := f.ctl.Tick(-1, time.Second)
	if res.Tripped || res.Delivered != 0 {
		t.Fatalf("negative demand: %+v", res)
	}
	if res.ActiveCores < 12 {
		t.Fatalf("cores %d below normal", res.ActiveCores)
	}
}

func TestGeneratorFailureToStart(t *testing.T) {
	// Attach no generator but hit a curtailment the stores can bridge for
	// a while: the controller uses them and degrades gracefully at the
	// end rather than panicking.
	f := newFacility(t, facilityOpts{})
	rated := f.tree.DCBreaker.Rated
	var died bool
	for i := 0; i < 1200; i++ {
		var res TickResult
		f.ctl.TickInput(Input{Demand: 0.9, SupplyLimit: rated * 25 / 100}, time.Second, &res)
		if res.Delivered < 0 {
			t.Fatalf("negative delivery at %d", i)
		}
		if res.Dead {
			died = true
			break
		}
	}
	if !died {
		t.Fatal("a 75% curtailment with no generator should eventually exhaust the stores")
	}
}
