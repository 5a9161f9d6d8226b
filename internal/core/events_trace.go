package core

import (
	"sort"
	"strings"
	"time"

	"dcsprint/internal/telemetry"
)

// Span and point names used by the trace mapping. Phases use the paper's
// vocabulary: Phase 1 rides the circuit-breaker trip curve, Phase 2
// discharges the UPS batteries, Phase 3 melts the TES tank.
const (
	SpanBurst     = "burst"
	SpanGenset    = "genset"
	SpanTESActive = "tes-active"

	spanSupervisionPrefix = "supervision:"
)

// PhaseSpanName returns the trace span name for a controller phase, or ""
// for phase 0 (normal operation, not a span).
func PhaseSpanName(phase int) string {
	switch phase {
	case 1:
		return "phase-cb-overload"
	case 2:
		return "phase-ups-discharge"
	case 3:
		return "phase-tes-cooling"
	default:
		return ""
	}
}

// TraceRecords builds a run's lifecycle trace from its event log:
// lifecycle pairs (burst, phases, genset, TES, supervision episodes) become
// spans, instantaneous transitions become points. At most one span per name
// is open at a time; re-opening an open span and ending one that is not
// open are no-ops, and an end before the start is clamped to the start.
// Spans still open at end close there, in name order. Spans are ordered by
// start (ties in the order they closed), then merged with the points by
// time, spans first at equal times.
func TraceRecords(events []Event, end time.Duration) []telemetry.TraceRecord {
	tb := traceBuilder{open: make(map[string]timedRecord)}
	for _, e := range events {
		tb.event(e)
	}
	names := make([]string, 0, len(tb.open))
	for name := range tb.open {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tb.end(name, end)
	}
	// One stable sort keeps closing order among spans, log order among
	// points, and spans ahead of points at equal times.
	all := append(tb.spans, tb.points...)
	sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	out := make([]telemetry.TraceRecord, len(all))
	for i, r := range all {
		out[i] = r.rec
	}
	return out
}

// timedRecord is a trace record with its exact start (span) or time (point).
type timedRecord struct {
	at  time.Duration
	rec telemetry.TraceRecord
}

// traceBuilder pairs span starts and ends while TraceRecords replays a log.
type traceBuilder struct {
	open          map[string]timedRecord
	spans, points []timedRecord
}

// event maps one controller event onto spans and points. It reports whether
// the kind has a mapping, so tests can prove every EventKind has one.
func (tb *traceBuilder) event(e Event) bool {
	switch e.Kind {
	case EventBurstStarted:
		tb.start(SpanBurst, e)
	case EventBurstEnded:
		tb.end(SpanBurst, e.Time)
	case EventPhaseChanged:
		if name := PhaseSpanName(e.From); name != "" {
			tb.end(name, e.Time)
		}
		if name := PhaseSpanName(e.To); name != "" {
			tb.start(name, e)
		}
	case EventTESActivated:
		tb.start(SpanTESActive, e)
	case EventTESExhausted:
		tb.end(SpanTESActive, e.Time)
		tb.point(e)
	case EventGeneratorStarted:
		tb.start(SpanGenset, e)
	case EventGeneratorOnline:
		tb.point(e)
	case EventGeneratorStopped:
		tb.end(SpanGenset, e.Time)
	case EventSensorDistrusted:
		// Detail is "<channel>: <verdict>"; the channel keys the span so
		// overlapping episodes on different channels stay separate.
		tb.start(spanSupervisionPrefix+supervisionChannel(e.Detail), e)
	case EventSensorRestored:
		// Detail is the bare channel name.
		tb.end(spanSupervisionPrefix+supervisionChannel(e.Detail), e.Time)
	case EventChipPCMExhausted, EventBreakerTripped, EventBrownout,
		EventOverheated, EventSprintAborted, EventThermalShed:
		tb.point(e)
	default:
		return false
	}
	return true
}

// start opens span name at e, unless one of that name is already open.
func (tb *traceBuilder) start(name string, e Event) {
	if _, ok := tb.open[name]; ok {
		return
	}
	tb.open[name] = timedRecord{at: e.Time, rec: telemetry.TraceRecord{
		Type: "span", Name: name, StartS: e.Time.Seconds(), Detail: e.Detail}}
}

// end closes the open span name at, clamped to its start; a name with no
// open span is ignored.
func (tb *traceBuilder) end(name string, at time.Duration) {
	s, ok := tb.open[name]
	if !ok {
		return
	}
	delete(tb.open, name)
	s.rec.EndS = max(at, s.at).Seconds()
	tb.spans = append(tb.spans, s)
}

func (tb *traceBuilder) point(e Event) {
	tb.points = append(tb.points, timedRecord{at: e.Time, rec: telemetry.TraceRecord{
		Type: "point", Name: e.Kind.String(), AtS: e.Time.Seconds(), Detail: e.Detail}})
}

// supervisionChannel extracts the channel name from a supervision event
// detail ("room: stuck" -> "room"; a bare name passes through).
func supervisionChannel(detail string) string {
	if i := strings.IndexByte(detail, ':'); i >= 0 {
		return strings.TrimSpace(detail[:i])
	}
	return strings.TrimSpace(detail)
}
