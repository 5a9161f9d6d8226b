package telemetry

import (
	"io"
	"strings"
	"testing"
)

// Substrate micro-benchmarks: the per-observation cost of the registry,
// which bounds how densely the sim tick loop can be instrumented.

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("dcsprint_bench_ops_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	c := NewRegistry().Counter("dcsprint_bench_ops_total", "")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkGaugeSet(b *testing.B) {
	g := NewRegistry().Gauge("dcsprint_bench_level_ratio", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("dcsprint_bench_latency_seconds", "", LinearBuckets(0, 0.25, 16))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%5) * 0.9)
	}
}

func BenchmarkCounterWithLookup(b *testing.B) {
	r := NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.CounterWith("dcsprint_bench_events_total", "", Labels{"kind": "burst-started"}).Inc()
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	r := NewRegistry()
	kinds := []string{"burst-started", "burst-ended", "phase-changed", "tes-activated"}
	for _, k := range kinds {
		r.CounterWith("dcsprint_bench_events_total", "events", Labels{"kind": k}).Add(7)
	}
	r.Gauge("dcsprint_bench_level_ratio", "level").Set(0.42)
	h := r.Histogram("dcsprint_bench_latency_seconds", "latency", LinearBuckets(0, 0.25, 16))
	for i := 0; i < 100; i++ {
		h.Observe(float64(i) * 0.03)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteCSV(b *testing.B) {
	vals := make([]float64, 1800)
	for i := range vals {
		vals[i] = float64(i) * 1.5
	}
	cols := []Column{
		{Name: "required", Values: vals, Format: "%.4f"},
		{Name: "dc_load_w", Values: vals, Format: "%.0f"},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteCSV(io.Discard, 1e9, cols...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParsePrometheus(b *testing.B) {
	r := NewRegistry()
	r.Counter("dcsprint_bench_ops_total", "ops").Add(12345)
	r.Histogram("dcsprint_bench_latency_seconds", "", LinearBuckets(0, 0.25, 16)).Observe(1.1)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		b.Fatal(err)
	}
	text := sb.String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParsePrometheus(strings.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}
