package service

import (
	"bytes"
	"context"
	"net/http/httptest"
	"runtime/pprof"
	"strconv"
	"testing"
	"time"

	"dcsprint/internal/telemetry"
	"dcsprint/internal/tsdb"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestManagerPlantPipeline drives the full observability path: sessions
// get plant recorders at install, the sampler folds them into fleet
// series, the watchdog fires on the sprinting fleet, and finishing the
// sessions clears both the per-session series and the alert.
func TestManagerPlantPipeline(t *testing.T) {
	store := tsdb.New(tsdb.Options{})
	sink := tsdb.NewPlantSink(store, tsdb.SinkOptions{})
	reg := telemetry.NewRegistry()
	flight := telemetry.NewFlightRecorder(NumShards, 64)
	rules, err := tsdb.ParseRules("load-active = max(fleet.sessions_sprinting, 200ms) > 0 for 1")
	if err != nil {
		t.Fatalf("ParseRules: %v", err)
	}
	wd, err := tsdb.NewWatchdog(store, rules, reg, flight)
	if err != nil {
		t.Fatalf("NewWatchdog: %v", err)
	}
	m := NewManager(Config{
		Registry: reg,
		Flight:   flight,
	}.WithPlant(sink, wd, 5*time.Millisecond))
	defer m.Close()

	ids := make([]string, 2)
	for i := range ids {
		s, err := m.Create(ScenarioSpec{})
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		ids[i] = s.ID
	}
	// Sprint both sessions so degree > 1 reaches the fleet fold.
	for tick := 0; tick < 40; tick++ {
		for _, id := range ids {
			if _, err := m.Step(id, 3.0); err != nil {
				t.Fatalf("Step: %v", err)
			}
		}
	}
	for _, id := range ids {
		if store.Lookup(`plant.degree{session="`+id+`"}`) == nil {
			t.Fatalf("session %s has no per-session degree series", id)
		}
	}
	waitFor(t, "fleet fold of both sessions", func() bool {
		v, ok := store.Lookup(tsdb.SeriesFleetSessions).Last()
		return ok && v == 2
	})
	if v, ok := store.Lookup(tsdb.SeriesFleetTotalDraw).Last(); !ok || v <= 0 {
		t.Fatalf("fleet draw = %v, %v", v, ok)
	}
	waitFor(t, "watchdog to fire on the sprinting fleet", func() bool {
		return len(wd.Active()) == 1
	})

	for _, id := range ids {
		if _, err := m.Finish(id); err != nil {
			t.Fatalf("Finish: %v", err)
		}
	}
	for _, id := range ids {
		if store.Lookup(`plant.degree{session="`+id+`"}`) != nil {
			t.Fatalf("session %s series survived Finish", id)
		}
	}
	waitFor(t, "alert to clear once the fleet drains", func() bool {
		return len(wd.Active()) == 0
	})
	// The lifecycle left its audit trail: one breach, one clear, both in
	// the counters and the flight recorder.
	if got := reg.CounterWith("dcsprint_slo_breaches_total", "",
		telemetry.Labels{"rule": "load-active"}).Value(); got < 1 {
		t.Fatalf("breach counter = %v", got)
	}
	var sawBreach, sawClear bool
	for _, ev := range flight.Events() {
		sawBreach = sawBreach || ev.Kind == telemetry.EventSLOBreach
		sawClear = sawClear || ev.Kind == telemetry.EventSLOClear
	}
	if !sawBreach || !sawClear {
		t.Fatalf("flight breach=%v clear=%v", sawBreach, sawClear)
	}
}

// TestShardWorkerLabels checks an open steps stream's handler goroutine
// carries its session's pprof shard label, so CPU profiles attribute
// stepping work to the shard that burned it.
func TestShardWorkerLabels(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	c := &Client{Base: srv.URL}
	ctx := context.Background()
	s, err := c.Create(ctx, ScenarioSpec{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	st, err := c.Stream(ctx, s.ID)
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	defer st.Close()
	if _, err := st.StepContext(ctx, 1.0); err != nil {
		t.Fatalf("StepContext: %v", err)
	}
	// The handler is now parked reading the next line, inside its labeled
	// region.
	want := []byte(`"shard":"` + strconv.Itoa(m.shardIdx(s.ID)) + `"`)
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatalf("goroutine profile: %v", err)
	}
	if !bytes.Contains(buf.Bytes(), want) {
		t.Fatalf("no goroutine carries %s:\n%s", want, buf.Bytes())
	}
}
