package sim

import (
	"reflect"
	"testing"
	"time"

	"dcsprint/internal/core"
	"dcsprint/internal/workload"
)

// TestBatchStepAllMatchesIndependentEngines is the batch API's core
// contract: StepAll over a mixed population — all five strategies, traces
// that drive sprinting through phases 1–3 — produces engines and Results
// DeepEqual-identical to stepping one independent engine per session.
func TestBatchStepAllMatchesIndependentEngines(t *testing.T) {
	tbl := buildTestTable(t)
	tr := mustTrace(workload.SyntheticYahoo(7, 3.2, 15*time.Minute))
	st := workload.Analyze(tr)
	strategies := []core.Strategy{
		nil, // greedy
		core.FixedBound{Bound: 2.5},
		core.Prediction{PredictedDuration: st.AggregateDuration, Table: tbl},
		core.Heuristic{EstimatedAvgDegree: 2.5, Flexibility: 0.10},
		core.Adaptive{Table: tbl},
	}
	var scs []Scenario
	for i, strat := range strategies {
		scs = append(scs, Scenario{Name: "batch", Trace: tr, Strategy: strat})
		scs = append(scs, Scenario{Name: "batch-tes", Trace: tr, Strategy: strat, TESMinutes: 5 + float64(i)})
	}

	b := NewBatch(BatchOptions{Capacity: len(scs)})
	slots := make([]int, len(scs))
	solo := make([]*Engine, len(scs))
	for i, sc := range scs {
		slot, err := b.Add(sc)
		if err != nil {
			t.Fatalf("Add %d: %v", i, err)
		}
		slots[i] = slot
		if solo[i], err = New(sc); err != nil {
			t.Fatalf("New %d: %v", i, err)
		}
	}

	demands := make([]Sample, b.Slots())
	phasesSeen := map[int]bool{}
	for tick := 0; tick < tr.Len(); tick++ {
		for i := range scs {
			demands[slots[i]] = Sample{Demand: tr.Samples[tick]}
		}
		decs, err := b.StepAll(demands)
		if err != nil {
			t.Fatalf("StepAll tick %d: %v", tick, err)
		}
		for i := range scs {
			want, err := solo[i].Step(tr.Samples[tick])
			if err != nil {
				t.Fatalf("solo Step %d tick %d: %v", i, tick, err)
			}
			if !reflect.DeepEqual(decs[slots[i]], want) {
				t.Fatalf("session %d tick %d: batch decision diverged", i, tick)
			}
			phasesSeen[decs[slots[i]].Phase] = true
		}
	}
	for _, ph := range []int{1, 2, 3} {
		if !phasesSeen[ph] {
			t.Errorf("batch run never entered phase %d (saw %v)", ph, phasesSeen)
		}
	}

	for i := range scs {
		eng := b.Remove(slots[i])
		if eng == nil {
			t.Fatalf("Remove %d: slot empty", i)
		}
		got, err := eng.Finish()
		if err != nil {
			t.Fatalf("batch Finish %d: %v", i, err)
		}
		want, err := solo[i].Finish()
		if err != nil {
			t.Fatalf("solo Finish %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("session %d (strategy %T): batch Result differs from independent engine",
				i, scs[i].Strategy)
		}
	}
	if b.Len() != 0 {
		t.Fatalf("batch still reports %d live sessions", b.Len())
	}
}

// TestBatchSlotReuse: removed slots are reused, skipped sessions hold their
// tick, and freed slots hold no engine.
func TestBatchSlotReuse(t *testing.T) {
	tr := mustTrace(workload.SyntheticYahoo(3, 2.0, 4*time.Minute))
	sc := Scenario{Trace: tr}
	b := NewBatch(BatchOptions{Capacity: 2})
	s0, err := b.Add(sc)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	s1, err := b.Add(sc)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if b.Len() != 2 || b.Slots() != 2 {
		t.Fatalf("Len/Slots = %d/%d, want 2/2", b.Len(), b.Slots())
	}
	// Skip slot 1 for 5 quanta; its tick must hold at zero.
	demands := []Sample{{Demand: 1.0}, {Skip: true}}
	for i := 0; i < 5; i++ {
		if _, err := b.StepAll(demands); err != nil {
			t.Fatalf("StepAll: %v", err)
		}
	}
	if got := b.Engine(s0).Tick(); got != 5 {
		t.Fatalf("slot %d tick = %d, want 5", s0, got)
	}
	if got := b.Engine(s1).Tick(); got != 0 {
		t.Fatalf("skipped slot %d tick = %d, want 0", s1, got)
	}
	if eng := b.Remove(s0); eng == nil || b.Len() != 1 {
		t.Fatal("Remove did not release the slot")
	}
	if b.Engine(s0) != nil || b.Engine(-1) != nil || b.Engine(b.Slots()) != nil {
		t.Fatal("Engine returned an engine for a freed or out-of-range slot")
	}
	if b.Remove(s0) != nil {
		t.Fatal("double Remove returned an engine")
	}
	// The freed slot is reused before the table grows.
	s2, err := b.Add(sc)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if s2 != s0 || b.Slots() != 2 {
		t.Fatalf("slot reuse: got slot %d (table %d), want %d (table 2)", s2, b.Slots(), s0)
	}
	// A stale demand slice is rejected, not silently truncated.
	if _, err := b.StepAll(demands[:1]); err == nil {
		t.Fatal("StepAll accepted a short demand slice")
	}
}
