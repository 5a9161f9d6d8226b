package sim

import (
	"testing"
	"time"

	"dcsprint/internal/workload"
)

// BenchmarkEngineStep measures one bare tick of the streaming engine — the
// floor under every per-step latency number the control-plane service can
// report. A short warmup excludes the one-time burst-start and phase-change
// event formatting so the number is the steady-state tick, which must stay
// at zero allocations.
func BenchmarkEngineStep(b *testing.B) {
	eng, err := New(Scenario{Name: "bench"})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	for i := 0; i < 8; i++ {
		if _, err := eng.Step(1.5); err != nil {
			b.Fatalf("Step: %v", err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Step(1.5); err != nil {
			b.Fatalf("Step: %v", err)
		}
	}
}

// BenchmarkEngineSnapshot measures checkpoint cost at a realistic mid-run
// history depth.
func BenchmarkEngineSnapshot(b *testing.B) {
	eng, err := New(Scenario{Name: "bench"})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := eng.Step(1.5); err != nil {
			b.Fatalf("Step: %v", err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Snapshot(); err != nil {
			b.Fatalf("Snapshot: %v", err)
		}
	}
}

// BenchmarkRunReference measures one whole reference run: sim.Run of
// SyntheticYahoo(1, 3.2, 15m) on the default plant, 1800 one-second ticks
// of idle, burst and recovery. ticks/s is the steady-state planning and
// physics throughput; allocs/op is the run's setup and history cost, which
// TestRunReferenceAllocs holds at 89: Finish hands the engine's series to
// the Result without copying them.
func BenchmarkRunReference(b *testing.B) {
	tr, err := workload.SyntheticYahoo(1, 3.2, 15*time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Scenario{Trace: tr}); err != nil {
			b.Fatalf("Run: %v", err)
		}
	}
	b.ReportMetric(float64(b.N*tr.Len())/b.Elapsed().Seconds(), "ticks/s")
}
