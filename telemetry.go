package dcsprint

// This file is the observability facade: the unified metrics registry, the
// run instrument, the lifecycle trace's record type and the live
// exposition server. The
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
	// TraceRecord is the JSONL wire form of one lifecycle span or point,
	// as (*Result).WriteTraceJSONL writes it.
	TraceRecord = telemetry.TraceRecord
	// Instrument feeds a finished run's Result into a registry; see
	// sim.Instrument.
	Instrument = sim.Instrument
	// TelemetryServer exposes /metrics, /healthz and pprof.
	TelemetryServer = telemetry.Server
)

// NewMetricRegistry returns an empty metrics registry.
func NewMetricRegistry() *MetricRegistry { return telemetry.NewRegistry() }

// DefaultMetricRegistry returns the process-wide registry that always-on
// probes (per-run counters) feed.
func DefaultMetricRegistry() *MetricRegistry { return telemetry.Default() }

// NewInstrument returns a run instrument over a registry.
func NewInstrument(reg *MetricRegistry) *Instrument { return sim.NewInstrument(reg) }

// WriteRunCSV writes a run's canonical per-second telemetry table; one
// schema shared by every CSV consumer. It is a thin wrapper around
// (*Result).WriteCSV.
func WriteRunCSV(w io.Writer, res *Result) error { return res.WriteCSV(w) }

// StartTelemetryServer serves the registry over HTTP for live scrapes;
// addr ":0" picks a free port.
func StartTelemetryServer(addr string, reg *MetricRegistry) (*TelemetryServer, error) {
	return telemetry.StartServer(addr, reg)
}
