package core

import (
	"strings"
	"testing"
	"time"
)

func TestEventLogRecordsSprintLifecycle(t *testing.T) {
	f := newFacility(t, facilityOpts{})
	// A burst, then a long cool-down past the cool-off window.
	for i := 0; i < 300; i++ {
		f.ctl.Tick(1.8, time.Second)
	}
	for i := 0; i < 200; i++ {
		f.ctl.Tick(0.5, time.Second)
	}
	events := f.ctl.Events()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	kinds := map[EventKind]int{}
	for _, e := range events {
		kinds[e.Kind]++
	}
	for _, want := range []EventKind{EventBurstStarted, EventBurstEnded, EventPhaseChanged, EventTESActivated} {
		if kinds[want] == 0 {
			t.Fatalf("missing %v in %v", want, events)
		}
	}
	// The first event is the burst start, at second one.
	if events[0].Kind != EventBurstStarted || events[0].Time != time.Second {
		t.Fatalf("first event = %v", events[0])
	}
	// Times are monotone non-decreasing.
	for i := 1; i < len(events); i++ {
		if events[i].Time < events[i-1].Time {
			t.Fatalf("events out of order: %v after %v", events[i], events[i-1])
		}
	}
}

func TestEventLogRecordsTrip(t *testing.T) {
	f := newFacility(t, facilityOpts{uncontrolled: true})
	for i := 0; i < 1800; i++ {
		if res := f.ctl.Tick(3.0, time.Second); res.Dead {
			break
		}
	}
	var tripped bool
	for _, e := range f.ctl.Events() {
		if e.Kind == EventBreakerTripped {
			tripped = true
			if !strings.Contains(e.Detail, "tripped") {
				t.Fatalf("trip detail = %q", e.Detail)
			}
		}
	}
	if !tripped {
		t.Fatalf("no trip event in %v", f.ctl.Events())
	}
}

func TestEventLogRecordsGeneratorLifecycle(t *testing.T) {
	f := newFacility(t, facilityOpts{})
	gen := attachTestGenerator(t, f)
	_ = gen
	rated := f.tree.DCBreaker.Rated
	for i := 0; i < 120; i++ {
		f.ctl.TickInput(Input{Demand: 0.9, SupplyLimit: rated / 2}, time.Second, new(TickResult))
	}
	for i := 0; i < 30; i++ {
		f.ctl.Tick(0.9, time.Second) // grid restored
	}
	kinds := map[EventKind]bool{}
	for _, e := range f.ctl.Events() {
		kinds[e.Kind] = true
	}
	for _, want := range []EventKind{EventGeneratorStarted, EventGeneratorOnline, EventGeneratorStopped} {
		if !kinds[want] {
			t.Fatalf("missing %v in %v", want, f.ctl.Events())
		}
	}
}

func TestEventKindStrings(t *testing.T) {
	for _, k := range []EventKind{
		EventBurstStarted, EventBurstEnded, EventPhaseChanged,
		EventTESActivated, EventTESExhausted, EventGeneratorStarted,
		EventGeneratorOnline, EventGeneratorStopped, EventChipPCMExhausted,
		EventBreakerTripped, EventBrownout, EventOverheated,
		EventSensorDistrusted, EventSensorRestored, EventSprintAborted,
		EventThermalShed,
	} {
		if s := k.String(); strings.HasPrefix(s, "event(") {
			t.Fatalf("missing name for kind %d", int(k))
		}
	}
	if got := EventKind(99).String(); got != "event(99)" {
		t.Fatalf("unknown kind = %q", got)
	}
	e := Event{Time: time.Minute, Kind: EventBurstStarted, Detail: "x"}
	if got := e.String(); got != "1m0s burst-started: x" {
		t.Fatalf("event string = %q", got)
	}
	e.Detail = ""
	if got := e.String(); got != "1m0s burst-started" {
		t.Fatalf("event string = %q", got)
	}
}
