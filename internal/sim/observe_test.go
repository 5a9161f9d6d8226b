package sim

import (
	"math"
	"strings"
	"testing"
	"time"

	"dcsprint/internal/core"
	"dcsprint/internal/faults"
	"dcsprint/internal/telemetry"
	"dcsprint/internal/workload"
)

// observed runs sc and feeds the Result into a fresh instrument over reg.
func observed(t *testing.T, sc Scenario, reg *telemetry.Registry) *Result {
	t.Helper()
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	NewInstrument(reg).Observe(res)
	return res
}

func TestInstrumentPopulatesRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	if NewInstrument(reg).Registry() != reg {
		t.Fatal("instrument registry accessor does not round-trip")
	}
	sc := Scenario{Name: "obs", Trace: mustTrace(workload.SyntheticYahoo(1, 3.2, 15*time.Minute))}
	res := observed(t, sc, reg)
	n := float64(sc.Trace.Len())
	if got := reg.Counter("dcsprint_sim_ticks_total", "").Value(); got != n {
		t.Fatalf("ticks counter = %v, want %v", got, n)
	}
	if got := reg.Counter("dcsprint_controller_events_total", "").Value(); got != float64(len(res.Events)) {
		t.Fatalf("events counter = %v, want %d", got, len(res.Events))
	}
	if got := reg.Histogram("dcsprint_controller_degree_hist_ratio", "", telemetry.LinearBuckets(1, 0.1, 8)).Count(); got != uint64(n) {
		t.Fatalf("degree histogram count = %v, want %v", got, n)
	}
	if got := reg.Gauge("dcsprint_sim_improvement_ratio", "").Value(); got != res.Improvement() {
		t.Fatalf("improvement gauge = %v, want %v", got, res.Improvement())
	}
}

// TestObserveGaugesMatchFinalPlant checks the per-tick gauges hold the
// run's last tick, exactly as the engine's plant probe reports it. The
// last demand is NaN, so the demand gauge must carry the sanitized value
// the tick served rather than the raw input the Result echoes.
func TestObserveGaugesMatchFinalPlant(t *testing.T) {
	sc := Scenario{Name: "gauges", Generator: true,
		Trace: mustTrace(workload.SyntheticYahoo(1, 3.2, 15*time.Minute))}
	eng, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	tr := eng.Scenario().Trace
	// Stop inside the burst, so the gauges hold sprinting values.
	last := tr.Len() / 2
	for i := 0; i < last; i++ {
		if _, err := eng.Step(tr.Samples[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Step(math.NaN()); err != nil {
		t.Fatal(err)
	}
	want := eng.Plant()
	res, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	NewInstrument(reg).Observe(res)
	if want.Demand != 1 {
		t.Fatalf("plant demand = %v, want the sanitized 1", want.Demand)
	}
	for name, v := range map[string]float64{
		"dcsprint_sim_demand_ratio":        want.Demand,
		"dcsprint_sim_delivered_ratio":     want.Delivered,
		"dcsprint_controller_degree_ratio": want.Degree,
		"dcsprint_controller_phase_index":  float64(want.Phase),
		"dcsprint_power_dc_load_watts":     want.DCLoadW,
		"dcsprint_power_pdu_load_watts":    want.PDULoadW,
		"dcsprint_power_ups_watts":         want.UPSPowerW,
		"dcsprint_power_gen_watts":         want.GenPowerW,
		"dcsprint_cooling_plant_watts":     want.CoolPowerW,
		"dcsprint_cooling_tes_watts":       want.TESRateW,
		"dcsprint_cooling_room_celsius":    want.RoomTempC,
	} {
		if got := reg.Gauge(name, "").Value(); got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if got := reg.Counter("dcsprint_sim_ticks_total", "").Value(); got != float64(last+1) {
		t.Fatalf("ticks counter = %v, want %d", got, last+1)
	}
}

// TestObserveResumedRunCoversWholeResult checks that a run restored from a
// mid-trace snapshot observes and traces exactly like the uninterrupted
// run: both read the whole Result, ticks before the snapshot included.
func TestObserveResumedRunCoversWholeResult(t *testing.T) {
	sc := Scenario{Name: "resumed", Trace: mustTrace(workload.SyntheticYahoo(1, 3.2, 15*time.Minute))}
	wantReg := telemetry.NewRegistry()
	wantRes := observed(t, sc, wantReg)

	first, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	samples := first.Scenario().Trace.Samples
	half := len(samples) / 2
	for _, d := range samples[:half] {
		if _, err := first.Step(d); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := first.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Restore(sc, snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range samples[half:] {
		if _, err := eng.Step(d); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	NewInstrument(reg).Observe(res)

	if got := reg.Counter("dcsprint_sim_ticks_total", "").Value(); got != float64(len(samples)) {
		t.Fatalf("ticks counter = %v, want the whole run's %d", got, len(samples))
	}
	var got, want strings.Builder
	if err := reg.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	if err := wantReg.WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("resumed registry differs from the uninterrupted run's\n--- want\n%s--- got\n%s", &want, &got)
	}
	var gotTrace, wantTrace strings.Builder
	if err := res.WriteTraceJSONL(&gotTrace); err != nil {
		t.Fatal(err)
	}
	if err := wantRes.WriteTraceJSONL(&wantTrace); err != nil {
		t.Fatal(err)
	}
	if gotTrace.Len() == 0 || gotTrace.String() != wantTrace.String() {
		t.Fatalf("resumed trace differs from the uninterrupted run's\n--- want\n%s--- got\n%s", &wantTrace, &gotTrace)
	}
}

// TestPhaseSpansMatchPhaseTimeline cross-checks trace spans against the
// per-tick phase series: controller events fire at tick end ((i+1)*step), so
// a span's window is the series window shifted by one step.
func TestPhaseSpansMatchPhaseTimeline(t *testing.T) {
	res := observed(t, Scenario{
		Name:  "spans",
		Trace: mustTrace(workload.SyntheticYahoo(1, 3.2, 15*time.Minute)),
	}, telemetry.NewRegistry())
	step := res.Telemetry.Required.Step
	end := time.Duration(res.Telemetry.Required.Len()) * step
	phases := 0
	for _, s := range core.TraceRecords(res.Events, end) {
		phase := 0
		switch s.Name {
		case "phase-cb-overload":
			phase = 1
		case "phase-ups-discharge":
			phase = 2
		case "phase-tes-cooling":
			phase = 3
		default:
			continue
		}
		// First tick with this phase is the event tick; the event time is
		// one step later.
		first := -1
		for i, p := range res.Telemetry.Phase {
			if p == phase {
				first = i
				break
			}
		}
		if first < 0 {
			t.Fatalf("span %q has no matching tick in the phase series", s.Name)
		}
		phases++
		want := (time.Duration(first+1) * step).Seconds()
		if s.StartS != want {
			t.Errorf("span %q starts at %vs, want %vs (first tick %d)", s.Name, s.StartS, want, first)
		}
		if s.EndS < s.StartS {
			t.Errorf("span %q ends before it starts: %v..%v", s.Name, s.StartS, s.EndS)
		}
	}
	if phases != 3 {
		t.Fatalf("%d phase spans, want one per phase", phases)
	}
}

// TestInstrumentFaultProbes checks a faulted run's sensor bus and injector
// feed the process-wide registry, and the instrument counts the applied
// faults from the Result.
func TestInstrumentFaultProbes(t *testing.T) {
	sched, err := faults.Parse(strings.NewReader("2m sensor-stuck sensor=room-temp value=24 dur=3m\n"))
	if err != nil {
		t.Fatal(err)
	}
	def := telemetry.Default()
	injected := def.CounterWith("dcsprint_faults_injected_total", "",
		telemetry.Labels{"kind": "sensor-stuck"})
	windows := def.CounterWith("dcsprint_sensors_fault_windows_total", "",
		telemetry.Labels{"kind": "sensor-stuck"})
	reads := def.CounterWith("dcsprint_sensors_reads_total", "",
		telemetry.Labels{"channel": "room"})
	i0, w0, r0 := injected.Value(), windows.Value(), reads.Value()
	reg := telemetry.NewRegistry()
	observed(t, Scenario{
		Name:   "faulted",
		Trace:  mustTrace(workload.SyntheticYahoo(1, 3.0, 10*time.Minute)),
		Faults: sched,
	}, reg)
	if got := injected.Value() - i0; got != 1 {
		t.Fatalf("injected counter moved by %v, want 1", got)
	}
	if got := windows.Value() - w0; got != 1 {
		t.Fatalf("window counter moved by %v, want 1", got)
	}
	if reads.Value() == r0 {
		t.Fatal("no room sensor reads counted")
	}
	if got := reg.Counter("dcsprint_faults_applied_total", "").Value(); got != 1 {
		t.Fatalf("applied counter = %v, want 1", got)
	}
}

// TestDefaultRunCounters checks the always-on probes every Run feeds into
// the process-wide registry.
func TestDefaultRunCounters(t *testing.T) {
	reg := telemetry.Default()
	runs := reg.Counter("dcsprint_sim_runs_total", "")
	ticks := reg.Counter("dcsprint_sim_run_ticks_total", "")
	r0, t0 := runs.Value(), ticks.Value()
	tr := mustTrace(workload.SyntheticYahoo(1, 2.0, 5*time.Minute))
	if _, err := Run(Scenario{Name: "counted", Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if got := runs.Value() - r0; got != 1 {
		t.Fatalf("runs counter moved by %v, want 1", got)
	}
	if got := ticks.Value() - t0; got != float64(tr.Len()) {
		t.Fatalf("ticks counter moved by %v, want %d", got, tr.Len())
	}
}

// TestWriteRunCSV pins the canonical run schema — the one table every CSV
// consumer shares.
func TestWriteRunCSV(t *testing.T) {
	res, err := Run(Scenario{Name: "csv", Trace: mustTrace(workload.SyntheticYahoo(1, 3.0, 10*time.Minute))})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteRunCSV(&b, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	const header = "t_sec,required,achieved,degree,phase,dc_load_w,pdu_load_w,ups_w,cooling_w,tes_w,room_c"
	if lines[0] != header {
		t.Fatalf("header = %q, want %q", lines[0], header)
	}
	if got, want := len(lines), res.Telemetry.Required.Len()+1; got != want {
		t.Fatalf("lines = %d, want %d", got, want)
	}
	// Row zero is tick zero: integer time, 4-decimal ratios, integer watts.
	fields := strings.Split(lines[1], ",")
	if len(fields) != 11 {
		t.Fatalf("row has %d fields: %q", len(fields), lines[1])
	}
	if fields[0] != "0" {
		t.Fatalf("t_sec[0] = %q, want 0", fields[0])
	}
	if !strings.Contains(fields[1], ".") || len(strings.SplitN(fields[1], ".", 2)[1]) != 4 {
		t.Fatalf("required[0] = %q, want 4 decimals", fields[1])
	}
	if strings.Contains(fields[5], ".") {
		t.Fatalf("dc_load_w[0] = %q, want integer", fields[5])
	}
}
