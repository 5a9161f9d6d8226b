package service

import (
	"reflect"
	"testing"
	"time"

	"dcsprint/internal/tsdb"
)

// TestProbesMatchRecorder pins the pull-based probe to the push-based one:
// after several sessions sprint through different numbers of ticks, every
// Manager.Probes sample equals the last PlantSample the session's plant
// recorder received — same tick numbering, power flows included.
func TestProbesMatchRecorder(t *testing.T) {
	sink := tsdb.NewPlantSink(tsdb.New(tsdb.Options{}), tsdb.SinkOptions{})
	m := NewManager(Config{}.WithPlant(sink, nil, time.Hour))
	defer m.Close()

	specs := []ScenarioSpec{
		{Name: "probe-default"},
		{Name: "probe-nontes", NoTES: true, ChipPCMMinutes: 5},
		{Name: "probe-gen", Generator: true, TESMinutes: 3},
		{Name: "probe-fixed", Strategy: &StrategySpec{Kind: "fixed", Bound: 2}},
	}
	ids := make([]string, len(specs))
	for i, spec := range specs {
		s, err := m.Create(spec)
		if err != nil {
			t.Fatalf("Create %s: %v", spec.Name, err)
		}
		ids[i] = s.ID
	}
	// Idle, then a burst deep enough to draw on the UPS; each session stops
	// a few ticks after the previous one so their tick counts differ.
	for i, id := range ids {
		for tick := 0; tick < 60+5*i; tick++ {
			demand := 1.0
			if tick >= 10 {
				demand = 3.0
			}
			if _, err := m.Step(id, demand); err != nil {
				t.Fatalf("Step %s tick %d: %v", id, tick, err)
			}
		}
	}

	probes := m.Probes()
	if len(probes) != len(ids) {
		t.Fatalf("Probes returned %d sessions, want %d", len(probes), len(ids))
	}
	seen, sawUPS := map[string]bool{}, false
	for _, p := range probes {
		seen[p.ID] = true
		want, ok := sink.Session(p.ID).Last()
		if !ok {
			t.Fatalf("session %s: recorder saw no sample", p.ID)
		}
		if !reflect.DeepEqual(p.Sample, want) {
			t.Errorf("session %s: probe differs from recorder\nprobe    %+v\nrecorder %+v", p.ID, p.Sample, want)
		}
		if p.Sample.PDULoadW <= 0 || p.Sample.CoolPowerW <= 0 {
			t.Errorf("session %s: probe power flows missing: %+v", p.ID, p.Sample)
		}
		sawUPS = sawUPS || p.Sample.UPSPowerW > 0
	}
	if !sawUPS {
		t.Error("no probe reports UPS discharge; the burst never reached phase 2")
	}
	for i, id := range ids {
		if !seen[id] {
			t.Errorf("session %d (%s) missing from Probes", i, id)
		}
	}
}
