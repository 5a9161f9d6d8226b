package sim

import (
	"math"
	"runtime"
	"testing"
	"time"

	"dcsprint/internal/core"
	"dcsprint/internal/faults"
	"dcsprint/internal/server"
	"dcsprint/internal/trace"
	"dcsprint/internal/workload"
)

// mustTrace unwraps a workload-generator result, panicking (and so
// failing the test) on error, in the style of template.Must.
func mustTrace(s *trace.Series, err error) *trace.Series {
	if err != nil {
		panic(err)
	}
	return s
}

func TestRunRequiresTrace(t *testing.T) {
	if _, err := Run(Scenario{Name: "empty"}); err == nil {
		t.Fatal("scenario without a trace accepted")
	}
	empty := &trace.Series{Step: time.Second}
	if _, err := Run(Scenario{Name: "empty", Trace: empty}); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestRunGreedyOnMSTrace(t *testing.T) {
	r, err := Run(Scenario{Name: "ms", Trace: mustTrace(workload.SyntheticMS(1))})
	if err != nil {
		t.Fatal(err)
	}
	// The headline shape: sprinting lifts the average burst performance
	// well above 1 (paper: 1.62-1.76 on its MS cut) without tripping.
	if r.Improvement() < 1.5 || r.Improvement() > 2.5 {
		t.Fatalf("MS Greedy improvement = %v, want 1.5-2.5", r.Improvement())
	}
	if r.TrippedAt >= 0 {
		t.Fatalf("controlled run tripped at %v", r.TrippedAt)
	}
	if r.SprintSustained < 10*time.Minute {
		t.Fatalf("sprint sustained only %v", r.SprintSustained)
	}
	// Telemetry is aligned and sane.
	tele := r.Telemetry
	n := mustTrace(workload.SyntheticMS(1)).Len()
	for name, s := range map[string]*trace.Series{
		"required": tele.Required, "achieved": tele.Achieved,
		"degree": tele.Degree, "dc": tele.DCLoad, "pdu": tele.PDULoad,
		"ups": tele.UPSPower, "cooling": tele.CoolingPower,
		"tes": tele.TESRate, "temp": tele.RoomTemp,
	} {
		if s.Len() != n {
			t.Fatalf("telemetry %s has %d samples, want %d", name, s.Len(), n)
		}
	}
	if got := tele.RoomTemp.Max(); got >= 40 {
		t.Fatalf("room reached %v C", got)
	}
	for i, p := range tele.Phase {
		if p < 0 || p > 3 {
			t.Fatalf("phase[%d] = %d", i, p)
		}
	}
	// All three phases appear during the MS burst.
	seen := map[int]bool{}
	for _, p := range tele.Phase {
		seen[p] = true
	}
	for _, want := range []int{1, 2, 3} {
		if !seen[want] {
			t.Fatalf("phase %d never reached", want)
		}
	}
	// Achieved never exceeds required or the chip ceiling.
	maxThr := r.Scenario.Server.MaxThroughput()
	for i := range tele.Achieved.Samples {
		a, q := tele.Achieved.Samples[i], tele.Required.Samples[i]
		if a > q+1e-9 || a > maxThr+1e-9 {
			t.Fatalf("achieved[%d] = %v with required %v", i, a, q)
		}
	}
	if r.Split.Total() <= 0 {
		t.Fatal("no additional energy recorded")
	}
}

func TestRunUncontrolledTripsNearPaperTime(t *testing.T) {
	r, err := Run(Scenario{Name: "unc", Trace: mustTrace(workload.SyntheticMS(1)), Uncontrolled: true})
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig 8(a): trips at 5 min 20 s; our synthetic cut trips within
	// the same few-minute window.
	if r.TrippedAt < 4*time.Minute || r.TrippedAt > 8*time.Minute {
		t.Fatalf("uncontrolled tripped at %v, want ~5-6 min", r.TrippedAt)
	}
	// Everything after the trip is dead: average burst performance
	// collapses below the no-sprinting baseline.
	if r.Improvement() >= 1 {
		t.Fatalf("uncontrolled improvement = %v, want < 1 (shutdown)", r.Improvement())
	}
	ctl, err := Run(Scenario{Name: "ctl", Trace: mustTrace(workload.SyntheticMS(1))})
	if err != nil {
		t.Fatal(err)
	}
	if ctl.Improvement() <= r.Improvement() {
		t.Fatal("controlled sprinting did not beat the uncontrolled baseline")
	}
}

// buildTestTable returns a fixed copy of the bound table the Oracle built on
// the Yahoo generator (seed 7) over four durations and three degrees, so the
// engine tests can drive Prediction and Adaptive without running a search
// (sim cannot import campaign). Each bound is the default chip's degree at n
// active cores, n/12.
func buildTestTable(t *testing.T) *core.BoundTable {
	t.Helper()
	tbl, err := core.NewBoundTable(
		[]time.Duration{5 * time.Minute, 10 * time.Minute, 15 * time.Minute, 20 * time.Minute},
		[]float64{2.6, 3.0, 3.4},
		[][]float64{
			{40.0 / 12, 48.0 / 12, 48.0 / 12},
			{40.0 / 12, 36.0 / 12, 36.0 / 12},
			{34.0 / 12, 34.0 / 12, 34.0 / 12},
			{34.0 / 12, 34.0 / 12, 34.0 / 12},
		},
	)
	if err != nil {
		t.Fatalf("NewBoundTable: %v", err)
	}
	return tbl
}

func TestScaleInvariance(t *testing.T) {
	// The facility is homogeneous per PDU group, so the improvement factor
	// must not depend on the server count. This justifies running
	// experiments on a small facility.
	tr := mustTrace(workload.SyntheticMS(1))
	small, err := Run(Scenario{Trace: tr, Servers: 1000})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Run(Scenario{Trace: tr, Servers: 8000})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(small.Improvement() - large.Improvement()); diff > 0.02 {
		t.Fatalf("scale variance: 1000 servers %.4f vs 8000 servers %.4f", small.Improvement(), large.Improvement())
	}
}

func TestHeadroomHelps(t *testing.T) {
	tr := mustTrace(workload.SyntheticYahoo(7, 3.2, 15*time.Minute))
	zero, err := Run(Scenario{Trace: tr, ExplicitZeroHeadroom: true})
	if err != nil {
		t.Fatal(err)
	}
	twenty, err := Run(Scenario{Trace: tr, DCHeadroom: 0.20})
	if err != nil {
		t.Fatal(err)
	}
	// More headroom means more deliverable energy, but under Greedy a
	// tight breaker acts as an implicit degree bound (the same effect
	// that lets Prediction beat Greedy on long bursts), so the comparison
	// carries a small tolerance rather than strict monotonicity.
	if twenty.Improvement() < zero.Improvement()-0.03 {
		t.Fatalf("20%% headroom %.4f well below 0%% headroom %.4f", twenty.Improvement(), zero.Improvement())
	}
	// Even with zero facility headroom, sprinting still helps (UPS + TES).
	if zero.Improvement() <= 1.1 {
		t.Fatalf("zero-headroom improvement = %.4f, want > 1.1", zero.Improvement())
	}
}

func TestNoTESAblation(t *testing.T) {
	tr := mustTrace(workload.SyntheticMS(1))
	with, err := Run(Scenario{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Run(Scenario{Trace: tr, NoTES: true})
	if err != nil {
		t.Fatal(err)
	}
	if without.Improvement() >= with.Improvement() {
		t.Fatalf("no-TES %.4f not below TES %.4f", without.Improvement(), with.Improvement())
	}
	if without.Improvement() <= 1.2 {
		t.Fatalf("no-TES improvement %.4f, want still well above 1", without.Improvement())
	}
	if without.Split.TES != 0 {
		t.Fatal("no-TES run recorded TES energy")
	}
}

func TestImprovementWithoutBurst(t *testing.T) {
	tr := mustTrace(workload.SyntheticYahoo(7, 1, 0))
	r, err := Run(Scenario{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Improvement(); got != 1 {
		t.Fatalf("no-burst improvement = %v, want 1", got)
	}
	if r.SprintSustained != 0 {
		t.Fatalf("no-burst sprint sustained %v", r.SprintSustained)
	}
}

func TestScenarioServerOverride(t *testing.T) {
	// A chip with 24 cores and 6 normal ones still has max degree 4 but a
	// different power envelope; the run must respect the override.
	custom := server.Config{
		TotalCores:    24,
		NormalCores:   6,
		CorePower:     5,
		ChipIdlePower: 5,
		NonCPUPower:   20,
		PerfExponent:  0.75,
	}
	r, err := Run(Scenario{Trace: mustTrace(workload.SyntheticYahoo(7, 2.0, 5*time.Minute)), Server: custom})
	if err != nil {
		t.Fatal(err)
	}
	if r.Scenario.Server.TotalCores != 24 {
		t.Fatal("server override lost")
	}
	if r.Improvement() <= 1.2 {
		t.Fatalf("custom server improvement = %v", r.Improvement())
	}
	if r.TrippedAt >= 0 {
		t.Fatal("custom server tripped")
	}
}

func TestResultAvgBurstDegree(t *testing.T) {
	r, err := Run(Scenario{Trace: mustTrace(workload.SyntheticYahoo(7, 3.0, 10*time.Minute))})
	if err != nil {
		t.Fatal(err)
	}
	avg := r.AvgBurstDegree()
	if avg <= 1 || avg > 4 {
		t.Fatalf("avg burst degree = %v", avg)
	}
	calm, err := Run(Scenario{Trace: mustTrace(workload.SyntheticYahoo(7, 1, 0))})
	if err != nil {
		t.Fatal(err)
	}
	if got := calm.AvgBurstDegree(); got != 1 {
		t.Fatalf("no-burst avg degree = %v, want 1", got)
	}
}

func TestNewRejectsInvalidFaultEvents(t *testing.T) {
	tr := mustTrace(workload.SyntheticYahoo(1, 3.2, 15*time.Minute))
	tests := []struct {
		name string
		ev   faults.Event
	}{
		{"NaN breaker derate", faults.Event{At: 10 * time.Second, Kind: faults.KindBreakerDerate,
			Group: faults.GroupAll, Frac: math.NaN()}},
		{"zero breaker derate", faults.Event{At: 10 * time.Second, Kind: faults.KindBreakerDerate,
			Group: faults.GroupAll}},
		{"NaN battery fade", faults.Event{At: 10 * time.Second, Kind: faults.KindBatteryFade,
			Group: faults.GroupAll, Frac: math.NaN()}},
		{"chiller fraction above one", faults.Event{At: 10 * time.Second, Kind: faults.KindChillerFail,
			Frac: 1.5}},
		{"negative time", faults.Event{At: -time.Second, Kind: faults.KindBreakerDerate,
			Group: faults.GroupAll, Frac: 0.9}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			// A literal bypasses faults.NewSchedule's validation.
			sched := &faults.Schedule{Events: []faults.Event{
				{At: 5 * time.Second, Kind: faults.KindBreakerDerate, Group: 1, Frac: 0.9},
				tt.ev,
			}}
			if _, err := New(Scenario{Trace: tr, Faults: sched}); err == nil {
				t.Error("New accepted the event")
			}
			if _, err := New(Scenario{Faults: sched}); err == nil {
				t.Error("New accepted the event for a streaming engine")
			}
			if _, err := Run(Scenario{Trace: tr, Faults: sched}); err == nil {
				t.Error("Run accepted the event")
			}
		})
	}
	valid := &faults.Schedule{Events: []faults.Event{
		{At: 10 * time.Second, Kind: faults.KindBreakerDerate, Group: faults.GroupAll, Frac: 0.9},
	}}
	if _, err := Run(Scenario{Trace: tr, Faults: valid}); err != nil {
		t.Fatalf("valid literal schedule rejected: %v", err)
	}
}

// TestStreamingNewAllocBound bounds what a new streaming engine costs: its
// history starts at streamPrealloc ticks, so a short session does not pay
// for a long one's buffers.
func TestStreamingNewAllocBound(t *testing.T) {
	const runs, bound = 20, 16 << 10
	perNew := uint64(math.MaxUint64)
	// The least of three rounds, so a background allocation cannot fail it.
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := New(Scenario{}); err != nil {
				t.Fatalf("New: %v", err)
			}
		}
		runtime.ReadMemStats(&after)
		perNew = min(perNew, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	if perNew > bound {
		t.Fatalf("a streaming New allocates %d B, want at most %d", perNew, bound)
	}
	t.Logf("a streaming New allocates %d B", perNew)
}
