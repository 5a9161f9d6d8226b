package dcsprint

// This file is the observability facade: the unified metrics registry,
// lifecycle tracer, the run instrument and the live exposition server. The
// implementation lives in internal/telemetry; see DESIGN.md's "Telemetry"
// section.

import (
	"io"

	"dcsprint/internal/sim"
	"dcsprint/internal/telemetry"
)

type (
	// MetricRegistry holds counters, gauges and histograms; see
	// telemetry.Registry.
	MetricRegistry = telemetry.Registry
	// MetricLabels is an optional label set on a metric child.
	MetricLabels = telemetry.Labels
	// Tracer records sprint-lifecycle spans and points.
	Tracer = telemetry.Tracer
	// TraceRecord is the JSONL wire form of one span or point.
	TraceRecord = telemetry.TraceRecord
	// Instrument feeds a finished run's Result into a registry and tracer;
	// see sim.Instrument.
	Instrument = sim.Instrument
	// TelemetryServer exposes /metrics, /healthz, /trace.jsonl and pprof.
	TelemetryServer = telemetry.Server
)

// NewMetricRegistry returns an empty metrics registry.
func NewMetricRegistry() *MetricRegistry { return telemetry.NewRegistry() }

// DefaultMetricRegistry returns the process-wide registry that always-on
// probes (per-run counters) feed.
func DefaultMetricRegistry() *MetricRegistry { return telemetry.Default() }

// NewTracer returns an empty lifecycle tracer.
func NewTracer() *Tracer { return telemetry.NewTracer() }

// NewInstrument returns a run instrument over a registry and an optional
// tracer.
func NewInstrument(reg *MetricRegistry, tr *Tracer) *Instrument {
	return sim.NewInstrument(reg, tr)
}

// WriteRunCSV writes a run's canonical per-second telemetry table; one
// schema shared by every CSV consumer. It is a thin wrapper around
// (*Result).WriteCSV.
func WriteRunCSV(w io.Writer, res *Result) error { return res.WriteCSV(w) }

// StartTelemetryServer serves the registry (and optional tracer) over HTTP
// for live scrapes; addr ":0" picks a free port.
func StartTelemetryServer(addr string, reg *MetricRegistry, tr *Tracer) (*TelemetryServer, error) {
	return telemetry.StartServer(addr, reg, tr)
}
