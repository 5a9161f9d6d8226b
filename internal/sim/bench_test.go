//go:build !race

// The race detector's instrumentation allocates and slows every step, so
// the allocation, byte and time bounds below hold only in a build without
// it. Each bound is a test beside the benchmark it reads, sharing its setup.

package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"dcsprint/internal/workload"
)

// maxStepTime bounds the mean time of one warm engine step, alone or in a
// batch sweep. A tick reads about 1.3 µs on a 2-vCPU Xeon, so the bound
// catches only a slowdown of about 20× or more; the benchmark module's
// campaign workload gates engine throughput in paired runs.
const maxStepTime = 30 * time.Microsecond

// steppedEngine is a streaming engine stepped ticks times at demand 1.5.
func steppedEngine(tb testing.TB, ticks int) *Engine {
	tb.Helper()
	eng, err := New(Scenario{Name: "bench"})
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	for i := 0; i < ticks; i++ {
		if _, err := eng.Step(1.5); err != nil {
			tb.Fatalf("Step: %v", err)
		}
	}
	return eng
}

// noGC turns the collector off until the returned func restores it. A
// collection empties sync.Pools such as fmt's printer cache, so a count
// taken across one reads the pool's refill on top of the code's own cost.
func noGC() (restore func()) {
	pct := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(pct) }
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean bytes f allocates
// per call over runs calls, after one warm-up call, read as the
// MemStats.TotalAlloc delta with GOMAXPROCS at 1 and the collector off.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer noGC()()
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// BenchmarkEngineStep measures one bare tick of the streaming engine — the
// floor under every per-step latency number the control-plane service can
// report. A short warmup excludes the one-time burst-start and phase-change
// event formatting so the number is the steady-state tick, which must stay
// at zero allocations (TestPlantProbeDetachedAllocs).
func BenchmarkEngineStep(b *testing.B) {
	eng := steppedEngine(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Step(1.5); err != nil {
			b.Fatalf("Step: %v", err)
		}
	}
}

// TestStepTime holds the mean warm step under maxStepTime: over 10,000
// ticks of BenchmarkEngineStep's engine, and over 40 sweeps of
// BenchmarkBatchStep's 256-facility fleet.
func TestStepTime(t *testing.T) {
	t.Run("engine", func(t *testing.T) {
		const ticks = 10000
		eng := steppedEngine(t, 8)
		start := time.Now()
		for i := 0; i < ticks; i++ {
			if _, err := eng.Step(1.5); err != nil {
				t.Fatalf("Step: %v", err)
			}
		}
		if per := time.Since(start) / ticks; per > maxStepTime {
			t.Fatalf("Engine.Step takes %v per tick, want at most %v", per, maxStepTime)
		}
	})
	t.Run("batch", func(t *testing.T) {
		const quanta = 40
		sweep := benchFleet(t, quanta)
		start := time.Now()
		for q := 0; q < quanta; q++ {
			sweep(q)
		}
		if per := time.Since(start) / (quanta * fleetSessions); per > maxStepTime {
			t.Fatalf("Batch.StepAll takes %v per engine step, want at most %v", per, maxStepTime)
		}
	})
}

// BenchmarkEngineSnapshot measures checkpoint cost at a realistic mid-run
// history depth.
func BenchmarkEngineSnapshot(b *testing.B) {
	eng := steppedEngine(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Snapshot(); err != nil {
			b.Fatalf("Snapshot: %v", err)
		}
	}
}

// TestEngineSnapshotBytes holds the bytes one Snapshot of
// BenchmarkEngineSnapshot's 1,000-tick engine allocates.
func TestEngineSnapshotBytes(t *testing.T) {
	const maxBytes = 207819
	eng := steppedEngine(t, 1000)
	n := bytesPerRun(10, func() {
		if _, err := eng.Snapshot(); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
	})
	if n > maxBytes {
		t.Fatalf("a Snapshot at 1,000 ticks allocates %d bytes, want at most %d", n, maxBytes)
	}
}

// BenchmarkRunReference measures one whole reference run: sim.Run of
// SyntheticYahoo(1, 3.2, 15m) on the default plant, 1800 one-second ticks
// of idle, burst and recovery. ticks/s is the steady-state planning and
// physics throughput; allocs/op is the run's setup and history cost, which
// TestRunReferenceAllocs holds at 63: Finish hands the engine's series to
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

// BenchmarkRunGroups runs the reference trace on facilities of 1, 10 and
// 100 PDU groups of 200 servers. Across the sub-benchmarks ns/tick reads
// the per-group slope of a tick, which lockstep runs of identical groups,
// each holding its state once, keep to the member-by-member sums. The
// timing is ungated; the slope's gate is deterministic:
// TestPaperScaleWorkPerTick (internal/core) requires the 900-group and the
// 10-group facility to do the same work on every tick, one run step and no
// state copy each.
func BenchmarkRunGroups(b *testing.B) {
	tr, err := workload.SyntheticYahoo(1, 3.2, 15*time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	for _, groups := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			sc := Scenario{Trace: tr, Servers: 200 * groups}
			for i := 0; i < b.N; i++ {
				if _, err := Run(sc); err != nil {
					b.Fatalf("Run: %v", err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tr.Len()), "ns/tick")
		})
	}
}

// TestRunReferenceAllocs pins BenchmarkRunReference's allocations per run.
func TestRunReferenceAllocs(t *testing.T) {
	tr, err := workload.SyntheticYahoo(1, 3.2, 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	const maxAllocs = 63
	defer noGC()()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(Scenario{Trace: tr}); err != nil {
			t.Fatalf("Run: %v", err)
		}
	})
	if allocs > maxAllocs {
		t.Fatalf("a reference run allocates %.0f times, want at most %d", allocs, maxAllocs)
	}
}
