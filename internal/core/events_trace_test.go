package core

import (
	"strings"
	"testing"
	"time"

	"dcsprint/internal/telemetry"
)

// TestEventKindStringsDistinct walks every kind up to the sentinel: each must
// have a real name (not the fallback "event(N)") and no two may collide.
func TestEventKindStringsDistinct(t *testing.T) {
	seen := map[string]EventKind{}
	for k := EventBurstStarted; k < eventKindEnd; k++ {
		s := k.String()
		if s == "" {
			t.Errorf("kind %d has empty String()", int(k))
			continue
		}
		if strings.HasPrefix(s, "event(") {
			t.Errorf("kind %d falls through to the default String() %q", int(k), s)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("kinds %d and %d share String() %q", int(prev), int(k), s)
		}
		seen[s] = k
	}
	if got := eventKindEnd.String(); !strings.HasPrefix(got, "event(") {
		t.Errorf("sentinel String() = %q, want fallback form", got)
	}
}

// TestTraceEventCoversEveryKind drives a realistic ordered lifecycle through
// TraceEvent and checks (a) every kind is recognised, and (b) each leaves a
// span or point in the tracer.
func TestTraceEventCoversEveryKind(t *testing.T) {
	// One plausible event per kind, ordered so ends follow starts.
	seq := []Event{
		{Time: 10 * time.Second, Kind: EventBurstStarted, Detail: "demand 1.80x"},
		{Time: 10 * time.Second, Kind: EventPhaseChanged, Detail: "phase 0 -> 1", From: 0, To: 1},
		{Time: 40 * time.Second, Kind: EventPhaseChanged, Detail: "phase 1 -> 2", From: 1, To: 2},
		{Time: 50 * time.Second, Kind: EventGeneratorStarted, Detail: "cranking"},
		{Time: 60 * time.Second, Kind: EventGeneratorOnline},
		{Time: 70 * time.Second, Kind: EventSensorDistrusted, Detail: "room: stuck"},
		{Time: 80 * time.Second, Kind: EventSensorRestored, Detail: "room"},
		{Time: 90 * time.Second, Kind: EventPhaseChanged, Detail: "phase 2 -> 3", From: 2, To: 3},
		{Time: 90 * time.Second, Kind: EventTESActivated, Detail: "tank 100% full"},
		{Time: 150 * time.Second, Kind: EventTESExhausted},
		{Time: 151 * time.Second, Kind: EventChipPCMExhausted},
		{Time: 152 * time.Second, Kind: EventThermalShed},
		{Time: 153 * time.Second, Kind: EventSprintAborted},
		{Time: 154 * time.Second, Kind: EventGeneratorStopped, Detail: "grid recovered"},
		{Time: 155 * time.Second, Kind: EventPhaseChanged, Detail: "phase 3 -> 0", From: 3, To: 0},
		{Time: 156 * time.Second, Kind: EventBurstEnded},
		{Time: 157 * time.Second, Kind: EventBrownout, Detail: "supply sag"},
		{Time: 158 * time.Second, Kind: EventOverheated, Detail: "room at 45C"},
		{Time: 159 * time.Second, Kind: EventBreakerTripped, Detail: "PDU 2"},
	}
	covered := map[EventKind]bool{}
	tr := telemetry.NewTracer()
	for _, e := range seq {
		if !TraceEvent(tr, e) {
			t.Errorf("TraceEvent did not recognise %v", e.Kind)
		}
		covered[e.Kind] = true
	}
	for k := EventBurstStarted; k < eventKindEnd; k++ {
		if !covered[k] {
			t.Errorf("lifecycle sequence misses kind %v — extend the table", k)
		}
	}
	// Unknown kinds are reported, not silently traced.
	if TraceEvent(tr, Event{Kind: eventKindEnd}) {
		t.Error("TraceEvent claimed to recognise the sentinel kind")
	}

	// The lifecycle must close everything it opened and produce the expected
	// span windows.
	if open := tr.OpenSpans(); len(open) != 0 {
		t.Errorf("lifecycle left spans open: %v", open)
	}
	spans := map[string]telemetry.Span{}
	for _, s := range tr.Spans() {
		spans[s.Name] = s
	}
	for name, want := range map[string][2]time.Duration{
		SpanBurst:             {10 * time.Second, 156 * time.Second},
		"phase-cb-overload":   {10 * time.Second, 40 * time.Second},
		"phase-ups-discharge": {40 * time.Second, 90 * time.Second},
		"phase-tes-cooling":   {90 * time.Second, 155 * time.Second},
		SpanGenset:            {50 * time.Second, 154 * time.Second},
		SpanTESActive:         {90 * time.Second, 150 * time.Second},
		"supervision:room":    {70 * time.Second, 80 * time.Second},
	} {
		s, ok := spans[name]
		if !ok {
			t.Errorf("missing span %q; have %v", name, tr.Spans())
			continue
		}
		if s.Start != want[0] || s.End != want[1] {
			t.Errorf("span %q = %v..%v, want %v..%v", name, s.Start, s.End, want[0], want[1])
		}
	}
	// Instantaneous kinds became points.
	points := map[string]bool{}
	for _, p := range tr.Points() {
		points[p.Name] = true
	}
	for _, want := range []string{
		"tes-exhausted", "generator-online", "chip-pcm-exhausted",
		"thermal-shed", "sprint-aborted", "brownout", "overheated",
		"breaker-tripped",
	} {
		if !points[want] {
			t.Errorf("missing point %q; have %v", want, tr.Points())
		}
	}
}

func TestPhaseSpanName(t *testing.T) {
	for phase, want := range map[int]string{
		0: "", 1: "phase-cb-overload", 2: "phase-ups-discharge", 3: "phase-tes-cooling", 7: "",
	} {
		if got := PhaseSpanName(phase); got != want {
			t.Errorf("PhaseSpanName(%d) = %q, want %q", phase, got, want)
		}
	}
}

// TestPhaseEventsCarryFields checks phase-changed events carry their
// From/To fields and no other kind does.
func TestPhaseEventsCarryFields(t *testing.T) {
	f := newFacility(t, facilityOpts{})
	for i := 0; i < 300; i++ {
		f.ctl.Tick(1.8, time.Second)
	}
	got := f.ctl.Events()
	if len(got) == 0 {
		t.Fatal("controller logged no events")
	}
	var phaseSeen bool
	for _, e := range got {
		if e.Kind == EventPhaseChanged {
			phaseSeen = true
			if e.From == e.To {
				t.Fatalf("phase event with From == To: %+v", e)
			}
		} else if e.From != 0 || e.To != 0 {
			t.Fatalf("non-phase event carries phase fields: %+v", e)
		}
	}
	if !phaseSeen {
		t.Fatal("no phase-changed event logged")
	}
}
