package core

import (
	"strings"

	"dcsprint/internal/telemetry"
)

// Span and point names used by the tracer mapping. Phases use the paper's
// vocabulary: Phase 1 rides the circuit-breaker trip curve, Phase 2
// discharges the UPS batteries, Phase 3 melts the TES tank.
const (
	SpanBurst     = "burst"
	SpanGenset    = "genset"
	SpanTESActive = "tes-active"

	spanSupervisionPrefix = "supervision:"
)

// PhaseSpanName returns the tracer span name for a controller phase, or ""
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

// TraceEvent translates one controller event into tracer activity: lifecycle
// pairs (burst, phases, genset, TES, supervision episodes) become spans,
// instantaneous transitions become points. It reports whether the kind was
// recognised, so tests can prove every EventKind has a mapping. Replay a
// run's event log through it in order:
//
//	for _, e := range ctl.Events() {
//		core.TraceEvent(tr, e)
//	}
func TraceEvent(tr *telemetry.Tracer, e Event) bool {
	switch e.Kind {
	case EventBurstStarted:
		tr.StartSpan(SpanBurst, e.Time, e.Detail)
	case EventBurstEnded:
		tr.EndSpan(SpanBurst, e.Time)
	case EventPhaseChanged:
		if name := PhaseSpanName(e.From); name != "" {
			tr.EndSpan(name, e.Time)
		}
		if name := PhaseSpanName(e.To); name != "" {
			tr.StartSpan(name, e.Time, e.Detail)
		}
	case EventTESActivated:
		tr.StartSpan(SpanTESActive, e.Time, e.Detail)
	case EventTESExhausted:
		tr.EndSpan(SpanTESActive, e.Time)
		tr.Point(e.Kind.String(), e.Time, e.Detail)
	case EventGeneratorStarted:
		tr.StartSpan(SpanGenset, e.Time, e.Detail)
	case EventGeneratorOnline:
		tr.Point(e.Kind.String(), e.Time, e.Detail)
	case EventGeneratorStopped:
		tr.EndSpan(SpanGenset, e.Time)
	case EventSensorDistrusted:
		// Detail is "<channel>: <verdict>"; the channel keys the span so
		// overlapping episodes on different channels stay separate.
		tr.StartSpan(spanSupervisionPrefix+supervisionChannel(e.Detail), e.Time, e.Detail)
	case EventSensorRestored:
		// Detail is the bare channel name.
		tr.EndSpan(spanSupervisionPrefix+supervisionChannel(e.Detail), e.Time)
	case EventChipPCMExhausted, EventBreakerTripped, EventBrownout,
		EventOverheated, EventSprintAborted, EventThermalShed:
		tr.Point(e.Kind.String(), e.Time, e.Detail)
	default:
		return false
	}
	return true
}

// supervisionChannel extracts the channel name from a supervision event
// detail ("room: stuck" -> "room"; a bare name passes through).
func supervisionChannel(detail string) string {
	if i := strings.IndexByte(detail, ':'); i >= 0 {
		return strings.TrimSpace(detail[:i])
	}
	return strings.TrimSpace(detail)
}
