package core_test

import (
	"reflect"
	"testing"
	"time"

	"dcsprint/internal/core"
	"dcsprint/internal/sim"
	"dcsprint/internal/workload"
)

// recordingBound is a strategy defined outside package core: it bounds the
// degree as bound does and keeps every State it is asked with.
type recordingBound struct {
	bound  func(core.State) float64
	states *[]core.State
}

func (r recordingBound) Name() string { return "recording" }

func (r recordingBound) UpperBound(st core.State) float64 {
	*r.states = append(*r.states, st)
	return r.bound(st)
}

// TestOutsideStrategyGetsStateEveryTick runs the reference scenario under
// strategies defined outside the package that bound the degree exactly as
// Greedy and FixedBound do. The controller resolves the built-in constant
// bounds once, but must ask an outside strategy on every controlled tick
// with that tick's State, and both must run bit for bit alike.
func TestOutsideStrategyGetsStateEveryTick(t *testing.T) {
	tr, err := workload.SyntheticYahoo(1, 3.2, 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		builtin core.Strategy
		bound   func(core.State) float64
	}{
		{core.Greedy{}, func(st core.State) float64 { return st.MaxDegree }},
		{core.FixedBound{Bound: 2.5}, func(core.State) float64 { return 2.5 }},
	} {
		var states []core.State
		got, err := sim.Run(sim.Scenario{Trace: tr, Strategy: recordingBound{tc.bound, &states}})
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Run(sim.Scenario{Trace: tr, Strategy: tc.builtin})
		if err != nil {
			t.Fatal(err)
		}
		name := tc.builtin.Name()
		if len(states) != tr.Len() {
			t.Fatalf("%s: asked %d times over %d ticks", name, len(states), tr.Len())
		}
		var inBurst, withBudget int
		for i, st := range states {
			if st.Demand != tr.Samples[i] {
				t.Fatalf("%s: tick %d asked with demand %v, want %v", name, i, st.Demand, tr.Samples[i])
			}
			if st.Elapsed > 0 {
				inBurst++
			}
			if st.BudgetLeft > 0 {
				withBudget++
			}
		}
		if inBurst == 0 || withBudget == 0 {
			t.Fatalf("%s: %d States inside a burst, %d with a budget estimate; want some of each", name, inBurst, withBudget)
		}
		got.Scenario, want.Scenario = sim.Scenario{}, sim.Scenario{}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: a run under the outside strategy differs from one under the built-in", name)
		}
	}
}
