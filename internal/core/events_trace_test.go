package core

import (
	"reflect"
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
// TraceRecords and checks (a) every kind has a mapping, (b) each event leaves
// a mark on the trace: dropping it from the log changes the records, and
// (c) the spans and points come out with the expected windows.
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
	const end = 200 * time.Second
	covered := map[EventKind]bool{}
	tb := traceBuilder{open: map[string]timedRecord{}}
	for _, e := range seq {
		if !tb.event(e) {
			t.Errorf("no trace mapping for %v", e.Kind)
		}
		covered[e.Kind] = true
	}
	for k := EventBurstStarted; k < eventKindEnd; k++ {
		if !covered[k] {
			t.Errorf("lifecycle sequence misses kind %v — extend the table", k)
		}
	}
	// Unknown kinds are reported, not silently traced.
	if tb.event(Event{Kind: eventKindEnd}) {
		t.Error("the sentinel kind has a trace mapping")
	}

	recs := TraceRecords(seq, end)
	for i, e := range seq {
		rest := append(append([]Event(nil), seq[:i]...), seq[i+1:]...)
		if reflect.DeepEqual(TraceRecords(rest, end), recs) {
			t.Errorf("dropping %v (%v) leaves the trace unchanged", e.Kind, e.Time)
		}
	}
	withSentinel := append(append([]Event(nil), seq...), Event{Time: 160 * time.Second, Kind: eventKindEnd})
	if !reflect.DeepEqual(TraceRecords(withSentinel, end), recs) {
		t.Error("the sentinel kind changed the trace")
	}

	// The lifecycle closes everything it opened and produces the expected
	// span windows.
	spans := map[string]telemetry.TraceRecord{}
	points := map[string]bool{}
	for _, r := range recs {
		switch r.Type {
		case "span":
			if _, dup := spans[r.Name]; dup {
				t.Errorf("span %q appears twice", r.Name)
			}
			spans[r.Name] = r
		case "point":
			points[r.Name] = true
		}
	}
	for name, want := range map[string][2]float64{
		SpanBurst:             {10, 156},
		"phase-cb-overload":   {10, 40},
		"phase-ups-discharge": {40, 90},
		"phase-tes-cooling":   {90, 155},
		SpanGenset:            {50, 154},
		SpanTESActive:         {90, 150},
		"supervision:room":    {70, 80},
	} {
		s, ok := spans[name]
		if !ok {
			t.Errorf("missing span %q; have %v", name, recs)
			continue
		}
		if s.StartS != want[0] || s.EndS != want[1] {
			t.Errorf("span %q = %v..%v, want %v..%v", name, s.StartS, s.EndS, want[0], want[1])
		}
	}
	if len(spans) != 7 {
		t.Errorf("%d spans, want 7: %v", len(spans), recs)
	}
	// Instantaneous kinds became points.
	for _, want := range []string{
		"tes-exhausted", "generator-online", "chip-pcm-exhausted",
		"thermal-shed", "sprint-aborted", "brownout", "overheated",
		"breaker-tripped",
	} {
		if !points[want] {
			t.Errorf("missing point %q; have %v", want, recs)
		}
	}
}

// TestTraceRecordsSpanPairing covers the pairing rules: a duplicate open
// keeps the first, an end without an open is ignored, and spans still open
// at the end of the run close there, in name order.
func TestTraceRecordsSpanPairing(t *testing.T) {
	got := TraceRecords([]Event{
		{Time: 10 * time.Second, Kind: EventBurstStarted, Detail: "degree 1.3"},
		{Time: 11 * time.Second, Kind: EventBurstStarted, Detail: "dup ignored"},
		{Time: 12 * time.Second, Kind: EventPhaseChanged, From: 0, To: 1},
		{Time: 12 * time.Second, Kind: EventTESActivated},
		{Time: 20 * time.Second, Kind: EventSensorRestored, Detail: "room"}, // never opened
		{Time: 40 * time.Second, Kind: EventPhaseChanged, From: 1, To: 0},
	}, 60*time.Second)
	want := []telemetry.TraceRecord{
		{Type: "span", Name: SpanBurst, StartS: 10, EndS: 60, Detail: "degree 1.3"},
		// Both start at 12 s; the phase closed first.
		{Type: "span", Name: "phase-cb-overload", StartS: 12, EndS: 40},
		{Type: "span", Name: SpanTESActive, StartS: 12, EndS: 60},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("records = %+v\nwant      %+v", got, want)
	}
	// Open spans close in name order, which decides ties on start.
	got = TraceRecords([]Event{
		{Time: 5 * time.Second, Kind: EventTESActivated},
		{Time: 5 * time.Second, Kind: EventBurstStarted},
	}, 9*time.Second)
	if len(got) != 2 || got[0].Name != SpanBurst || got[1].Name != SpanTESActive {
		t.Fatalf("spans closed at the end = %+v, want burst then tes-active", got)
	}
	if recs := TraceRecords(nil, time.Minute); len(recs) != 0 {
		t.Fatalf("empty log traced %+v", recs)
	}
}

// TestTraceRecordsEndClampsToStart checks an end before the start, and an
// end of run before an open span's start, both clamp to the start.
func TestTraceRecordsEndClampsToStart(t *testing.T) {
	got := TraceRecords([]Event{
		{Time: 10 * time.Second, Kind: EventBurstStarted},
		{Time: 5 * time.Second, Kind: EventBurstEnded},
		{Time: 30 * time.Second, Kind: EventGeneratorStarted},
	}, 20*time.Second)
	want := []telemetry.TraceRecord{
		{Type: "span", Name: SpanBurst, StartS: 10, EndS: 10},
		{Type: "span", Name: SpanGenset, StartS: 30, EndS: 30},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("records = %+v, want %+v", got, want)
	}
}

// TestTraceRecordsPoints checks points are sorted by time and follow the
// spans that start at the same time.
func TestTraceRecordsPoints(t *testing.T) {
	got := TraceRecords([]Event{
		{Time: 30 * time.Second, Kind: EventBreakerTripped, Detail: "PDU 3"},
		{Time: 20 * time.Second, Kind: EventBrownout},
		{Time: 20 * time.Second, Kind: EventBurstStarted},
		{Time: 25 * time.Second, Kind: EventBurstEnded},
	}, time.Minute)
	want := []telemetry.TraceRecord{
		{Type: "span", Name: SpanBurst, StartS: 20, EndS: 25},
		{Type: "point", Name: "brownout", AtS: 20},
		{Type: "point", Name: "breaker-tripped", AtS: 30, Detail: "PDU 3"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("records = %+v, want %+v", got, want)
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
