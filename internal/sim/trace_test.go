package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dcsprint/internal/faults"
	"dcsprint/internal/telemetry"
	"dcsprint/internal/workload"
)

// traceGoldenRuns are the runs whose lifecycle traces
// testdata/trace_jsonl.golden pins: the reference burst, an uncontrolled
// trip, a generator run through a grid curtailment, a sensor-faulted run
// that trips and the reference run resumed from a mid-burst snapshot.
func traceGoldenRuns(t *testing.T) []struct {
	name string
	res  *Result
} {
	t.Helper()
	yahoo := func() Scenario {
		return Scenario{Name: "trace", Trace: mustTrace(workload.SyntheticYahoo(1, 3.2, 15*time.Minute))}
	}
	run := func(sc Scenario) *Result {
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	uncontrolled := yahoo()
	uncontrolled.Uncontrolled = true
	withFaults := func(spec string) Scenario {
		sched, err := faults.Parse(strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		sc := yahoo()
		sc.Faults = sched
		return sc
	}
	generator := withFaults("8m grid-curtail frac=0.5 dur=4m\n")
	generator.Generator = true
	faulted := withFaults("5m sensor-noise sensor=room-temp sigma=3 dur=4m\n" +
		"6m sensor-dropout sensor=tes-level dur=2m\n9m breaker-derate level=dc frac=0.5\n")

	first, err := New(yahoo())
	if err != nil {
		t.Fatal(err)
	}
	samples := first.Scenario().Trace.Samples
	const snapTick = 400 // 6m40s: inside the burst
	for _, d := range samples[:snapTick] {
		if _, err := first.Step(d); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := first.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Restore(yahoo(), snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range samples[snapTick:] {
		if _, err := eng.Step(d); err != nil {
			t.Fatal(err)
		}
	}
	resumed, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		res  *Result
	}{
		{"reference", run(yahoo())},
		{"uncontrolled", run(uncontrolled)},
		{"generator", run(generator)},
		{"faulted", run(faulted)},
		{"resumed", resumed},
	}
}

// TestTraceJSONLGolden pins WriteTraceJSONL byte for byte: each run's trace
// follows a "# <name>" line. These are the bytes dcsprint -trace-out and
// -events-format json write, so a change to them is a change of format.
// The runs must also hold what they are there to pin: phase, TES,
// generator and supervision spans and the trip and TES-exhaustion points,
// each run parseable by telemetry.ReadJSONL.
func TestTraceJSONLGolden(t *testing.T) {
	var b strings.Builder
	seen := map[string]bool{}
	for _, r := range traceGoldenRuns(t) {
		fmt.Fprintf(&b, "# %s\n", r.name)
		var run strings.Builder
		if err := r.res.WriteTraceJSONL(&run); err != nil {
			t.Fatal(err)
		}
		b.WriteString(run.String())
		recs, err := telemetry.ReadJSONL(strings.NewReader(run.String()))
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		for _, rec := range recs {
			seen[rec.Type+" "+rec.Name] = true
		}
	}
	for _, want := range []string{
		"span burst", "span phase-cb-overload", "span phase-ups-discharge", "span phase-tes-cooling",
		"span tes-active", "span genset", "span supervision:room-temp", "span supervision:tes-level",
		"point tes-exhausted", "point breaker-tripped", "point sprint-aborted", "point generator-online",
	} {
		if !seen[want] {
			t.Errorf("golden runs hold no %s; have %v", want, seen)
		}
	}
	golden := filepath.Join("testdata", "trace_jsonl.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d:\n got %s\nwant %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", golden, len(gl), len(wl))
	}
}
