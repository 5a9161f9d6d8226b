package tsdb

import (
	"math"
	"testing"
	"time"

	"dcsprint/internal/sim"
)

// fakeClock is an injectable millisecond clock for deterministic sinks.
type fakeClock struct{ ms int64 }

func (c *fakeClock) now() int64           { return c.ms }
func (c *fakeClock) tick(d time.Duration) { c.ms += d.Milliseconds() }

func testSample(load, degree, thermal, stress, ups, tes float64) sim.PlantSample {
	return sim.PlantSample{
		DCLoadW: load, GridDrawW: load, GenPowerW: 0,
		Degree: degree, ThermalMarginC: thermal, BreakerStress: stress,
		UPSSoC: ups, TESSoC: tes, ChipHeadroomJ: -1,
		RoomTempC: 25,
	}
}

func TestSinkPerSessionSeries(t *testing.T) {
	clk := &fakeClock{ms: 1000}
	st := New(Options{})
	sink := NewPlantSink(st, SinkOptions{Clock: clk.now})
	rec := sink.Session("s1")
	if rec.ID() != "s1" {
		t.Fatalf("ID = %q", rec.ID())
	}
	if again := sink.Session("s1"); again != rec {
		t.Fatal("Session not idempotent")
	}
	rec.RecordPlant(testSample(500, 2, 10, 0.3, 0.9, -1))
	s := st.Lookup(`plant.dc_load_watts{session="s1"}`)
	if s == nil {
		t.Fatal("per-session load series missing")
	}
	if v, ok := s.Last(); !ok || v != 500 {
		t.Fatalf("load last = %v, %v", v, ok)
	}
	if s.LastTs() != 1000 {
		t.Fatalf("ts = %d, want the sink clock", s.LastTs())
	}
	// The -1 TES sentinel must not pollute the series.
	if tes := st.Lookup(`plant.tes_soc{session="s1"}`); tes.Appended() != 0 {
		t.Fatalf("tes series got %d appends from a sentinel", tes.Appended())
	}
	sink.Drop("s1")
	if st.Lookup(`plant.dc_load_watts{session="s1"}`) != nil {
		t.Fatal("Drop left per-session series behind")
	}
	if sink.Sessions() != 0 {
		t.Fatalf("Sessions = %d after drop", sink.Sessions())
	}
}

func TestSampleFleet(t *testing.T) {
	clk := &fakeClock{ms: 0}
	st := New(Options{})
	sink := NewPlantSink(st, SinkOptions{Clock: clk.now})

	// Idle fleet: gauges exist at zero, min/max series stay absent.
	sink.SampleFleet(nil)
	if v, _ := st.Lookup(SeriesFleetSessions).Last(); v != 0 {
		t.Fatalf("idle sessions = %v", v)
	}
	if st.Lookup(SeriesFleetWorstThermal) != nil {
		t.Fatal("idle fleet appended a worst-thermal value")
	}

	sink.Session("a").RecordPlant(testSample(500, 2.5, 8, 0.4, 0.95, 0.7))
	sink.Session("b").RecordPlant(testSample(300, 1.0, 3, 0.6, 0.80, -1))
	sink.Session("idle") // never reports; must not count
	clk.tick(time.Second)
	ts := sink.SampleFleet(map[string]float64{SeriesFleetSlowStepRatio: 0.25})
	if ts != 1000 {
		t.Fatalf("fold ts = %d", ts)
	}
	want := map[string]float64{
		SeriesFleetSessions:      2,
		SeriesFleetSprinting:     1,
		SeriesFleetTotalDraw:     800,
		SeriesFleetTotalGrid:     800,
		SeriesFleetTotalGen:      0,
		SeriesFleetWorstThermal:  3,
		SeriesFleetWorstStress:   0.6,
		SeriesFleetMinUPSSoC:     0.80,
		SeriesFleetMinTESSoC:     0.7, // only session a has a tank
		SeriesFleetSlowStepRatio: 0.25,
	}
	for name, exp := range want {
		got, ok := st.Lookup(name).Last()
		if !ok || math.Abs(got-exp) > 1e-12 {
			t.Errorf("%s = %v (ok=%v), want %v", name, got, ok, exp)
		}
		if st.Lookup(name).LastTs() != 1000 {
			t.Errorf("%s ts != fold ts", name)
		}
	}
}

func TestSinkAtSeriesCap(t *testing.T) {
	st := New(Options{MaxSeries: 3})
	sink := NewPlantSink(st, SinkOptions{Clock: (&fakeClock{}).now})
	// One session wants len(sessionFields) series; only 3 slots exist.
	sink.Session("big").RecordPlant(testSample(100, 1, 5, 0.1, 1, 0.5))
	if got := len(st.Names()); got != 3 {
		t.Fatalf("store holds %d series, cap 3", got)
	}
	if st.Rejected() == 0 {
		t.Fatal("cap never counted a rejection")
	}
	// The capped session still folds into the fleet (which may itself be
	// capped — Append on nil discards, no panic).
	sink.SampleFleet(nil)
}

func TestOfflineRecorder(t *testing.T) {
	st := New(Options{})
	rec := NewOfflineRecorder(st)
	s := testSample(750, 3, 6, 0.2, 0.9, 0.8)
	s.Now = 5 * time.Second
	rec.RecordPlant(s)
	series := st.Lookup("plant.dc_load_watts")
	if series == nil {
		t.Fatal("offline series missing")
	}
	if series.LastTs() != 5000 {
		t.Fatalf("offline ts = %d, want sim-time ms", series.LastTs())
	}
	if v, _ := st.Lookup("plant.tes_soc").Last(); v != 0.8 {
		t.Fatalf("tes = %v", v)
	}
	if st.Lookup("plant.chip_headroom_j").Appended() != 0 {
		t.Fatal("chip sentinel appended")
	}
}
