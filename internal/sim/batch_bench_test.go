//go:build !race

// The race detector's instrumentation allocates, so the byte bounds below
// hold only in a build without it.

package sim

import "testing"

// fleetSessions is BenchmarkBatchStep's fleet size.
const fleetSessions = 256

// benchFleet builds BenchmarkBatchStep's fleet of small facilities, each
// engine's history sized for quanta more sweeps, and warms every session
// past the one-time burst-start event formatting. sweep(q) steps the whole
// fleet one tick under a staggered ~80/20 idle/sprint duty cycle, so every
// quantum mixes idle and sprinting sessions.
func benchFleet(tb testing.TB, quanta int) (sweep func(q int)) {
	tb.Helper()
	batch := NewBatch(BatchOptions{Capacity: fleetSessions})
	for i := 0; i < fleetSessions; i++ {
		if _, err := batch.Add(Scenario{Name: "bench", Servers: 200}); err != nil {
			tb.Fatalf("Add: %v", err)
		}
	}
	demands := make([]Sample, batch.Slots())
	sweep = func(q int) {
		for slot := range demands {
			if (q+slot)%10 < 8 {
				demands[slot] = Sample{Demand: 0.6}
			} else {
				demands[slot] = Sample{Demand: 1.5}
			}
		}
		if _, err := batch.StepAll(demands); err != nil {
			tb.Fatalf("StepAll: %v", err)
		}
	}
	// Pre-size every session's telemetry accumulators for the whole run so
	// the sweeps measure steady-state stepping, not buffer regrowth
	// (regrowth is a rare amortized event: growSeries doubles the capacity
	// from streamPrealloc's 64 ticks, so a session pays it about log2(n/64)
	// times in n ticks).
	for slot := 0; slot < batch.Slots(); slot++ {
		batch.Engine(slot).grow(quanta + 64)
	}
	for q := 0; q < 16; q++ {
		sweep(q)
	}
	return sweep
}

// BenchmarkBatchStep measures the batched lockstep quantum on
// benchFleet's fleet. TestStepTime bounds its time per engine step; the
// steps/s metric reads the runner as much as the code and gates nothing.
func BenchmarkBatchStep(b *testing.B) {
	sweep := benchFleet(b, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep(i)
	}
	b.StopTimer()
	steps := float64(b.N) * fleetSessions
	b.ReportMetric(steps/b.Elapsed().Seconds(), "steps/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/steps, "ns/step")
}

// deltaPoint is the durability layer's checkpoint cadence at a realistic
// depth: an engine stepped 1,032 ticks, the full snapshot it took at tick
// 1,000 (the delta base), and its full snapshot now.
func deltaPoint(tb testing.TB) (eng *Engine, base, full []byte) {
	tb.Helper()
	eng = steppedEngine(tb, 1000)
	base, err := eng.Snapshot()
	if err != nil {
		tb.Fatalf("Snapshot: %v", err)
	}
	for i := 0; i < 32; i++ {
		if _, err := eng.Step(1.5); err != nil {
			tb.Fatalf("Step: %v", err)
		}
	}
	if full, err = eng.Snapshot(); err != nil {
		tb.Fatalf("Snapshot: %v", err)
	}
	return eng, base, full
}

// BenchmarkDeltaSnapshot measures incremental checkpoint cost at
// deltaPoint. delta_frac is delta bytes over full-snapshot bytes;
// TestDeltaSnapshotSize bounds it and the bytes each delta allocates.
func BenchmarkDeltaSnapshot(b *testing.B) {
	eng, base, full := deltaPoint(b)
	var (
		delta []byte
		err   error
	)
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

// TestDeltaSnapshotSize holds a delta at deltaPoint under a tenth of the
// full snapshot, and the bytes DeltaSnapshot allocates under 16 KiB.
func TestDeltaSnapshotSize(t *testing.T) {
	const (
		maxFrac  = 0.1
		maxBytes = 16384
	)
	eng, base, full := deltaPoint(t)
	delta, err := eng.DeltaSnapshot(base)
	if err != nil {
		t.Fatalf("DeltaSnapshot: %v", err)
	}
	if frac := float64(len(delta)) / float64(len(full)); frac > maxFrac {
		t.Errorf("delta is %d of %d full-snapshot bytes (%.3f), want at most %.2f", len(delta), len(full), frac, maxFrac)
	}
	n := bytesPerRun(10, func() {
		if _, err := eng.DeltaSnapshot(base); err != nil {
			t.Fatalf("DeltaSnapshot: %v", err)
		}
	})
	if n > maxBytes {
		t.Errorf("DeltaSnapshot allocates %d bytes, want at most %d", n, maxBytes)
	}
}
