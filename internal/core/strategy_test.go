package core

import (
	"encoding/json"
	"math"
	"testing"
	"time"
)

func baseState() State {
	return State{
		Elapsed:     2 * time.Minute,
		Demand:      2.5,
		PeakDemand:  3.0,
		AvgDegree:   2.0,
		MaxDegree:   4,
		BudgetTotal: 1e6,
		BudgetLeft:  1e6,
		DegreePower: 1000,
	}
}

func TestGreedy(t *testing.T) {
	g := Greedy{}
	if g.Name() != "greedy" {
		t.Errorf("Name = %q", g.Name())
	}
	if got := g.UpperBound(baseState()); got != 4 {
		t.Fatalf("Greedy bound = %v, want MaxDegree", got)
	}
}

func TestFixedBound(t *testing.T) {
	f := FixedBound{Bound: 2.5}
	if got := f.UpperBound(baseState()); got != 2.5 {
		t.Fatalf("FixedBound = %v", got)
	}
	if f.Name() != "fixed" {
		t.Errorf("Name = %q", f.Name())
	}
}

func mustTable(t *testing.T) *BoundTable {
	t.Helper()
	tbl, err := NewBoundTable(
		[]time.Duration{5 * time.Minute, 15 * time.Minute, 30 * time.Minute},
		[]float64{2.0, 3.0, 4.0},
		[][]float64{
			{4.0, 4.0, 4.0}, // short bursts: unconstrained
			{3.0, 3.2, 3.5},
			{2.0, 2.2, 2.5}, // long bursts: constrained
		},
	)
	if err != nil {
		t.Fatalf("NewBoundTable: %v", err)
	}
	return tbl
}

func TestPredictionEquivalentDuration(t *testing.T) {
	tbl := mustTable(t)
	p := Prediction{PredictedDuration: 15 * time.Minute, Table: tbl}
	if p.Name() != "prediction" {
		t.Errorf("Name = %q", p.Name())
	}

	// Early in the burst, AvgDegree ~ 1 so BDu_e = 15 min x 4/1 = 60 min:
	// rounds to the 30-min row -> conservative bound 2.2 (degree 3).
	st := baseState()
	st.AvgDegree = 1
	if got := p.UpperBound(st); got != 2.2 {
		t.Fatalf("early bound = %v, want 2.2", got)
	}

	// Once AvgDegree reaches SDe_max, BDu_e = BDu_p -> the 15-min row.
	st.AvgDegree = 4
	if got := p.UpperBound(st); got != 3.2 {
		t.Fatalf("steady bound = %v, want 3.2", got)
	}
}

func TestPredictionDegenerate(t *testing.T) {
	st := baseState()
	if got := (Prediction{}).UpperBound(st); got != st.MaxDegree {
		t.Fatalf("nil table bound = %v, want MaxDegree", got)
	}
	p := Prediction{PredictedDuration: -time.Minute, Table: mustTable(t)}
	if got := p.UpperBound(st); got != st.MaxDegree {
		t.Fatalf("negative duration bound = %v, want MaxDegree", got)
	}
	// Peak demand below 1 clamps the degree axis.
	p = Prediction{PredictedDuration: 10 * time.Minute, Table: mustTable(t)}
	st.PeakDemand = 0.5
	st.AvgDegree = 4
	if got := p.UpperBound(st); got != 3.0 {
		t.Fatalf("clamped degree bound = %v, want 3.0 (15-min row, degree floor)", got)
	}
}

func TestHeuristicSchedule(t *testing.T) {
	h := Heuristic{EstimatedAvgDegree: 2.0, Flexibility: 0.1}
	if h.Name() != "heuristic" {
		t.Errorf("Name = %q", h.Name())
	}

	// At t=0 with a full budget: bound = SDe_ini = 2.0 x 1.1 = 2.2.
	st := baseState()
	st.Elapsed = 0
	if got := h.UpperBound(st); math.Abs(got-2.2) > 1e-9 {
		t.Fatalf("initial bound = %v, want 2.2", got)
	}

	// Energy draining on schedule keeps the bound steady: at half the
	// predicted duration with half the budget left, RE/RT = 1.
	// SDu_p = 1e6 / 1000 / 2 = 500 s (paper eq. 3: EB_tot / SDe_p).
	st.Elapsed = 250 * time.Second
	st.BudgetLeft = 5e5
	if got := h.UpperBound(st); math.Abs(got-2.2) > 1e-9 {
		t.Fatalf("on-schedule bound = %v, want 2.2", got)
	}

	// Draining faster than schedule lowers the bound.
	st.BudgetLeft = 2.5e5
	if got := h.UpperBound(st); got >= 2.2 {
		t.Fatalf("over-spend bound = %v, want < 2.2", got)
	}

	// Draining slower than schedule raises it.
	st.BudgetLeft = 9e5
	if got := h.UpperBound(st); got <= 2.2 {
		t.Fatalf("under-spend bound = %v, want > 2.2", got)
	}
}

func TestHeuristicDegenerateInputs(t *testing.T) {
	st := baseState()
	st.BudgetTotal = 0
	h := Heuristic{EstimatedAvgDegree: 2.0, Flexibility: 0.1}
	if got := h.UpperBound(st); math.Abs(got-2.2) > 1e-9 {
		t.Fatalf("zero budget bound = %v, want SDe_ini", got)
	}
	// -100% estimation error: SDe_p collapses to ~1; the bound starts at
	// its most conservative value rather than dividing by zero.
	h = Heuristic{EstimatedAvgDegree: 0, Flexibility: 0.1}
	st = baseState()
	got := h.UpperBound(st)
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("degenerate estimate produced %v", got)
	}
	if got > 1.5 {
		t.Fatalf("degenerate estimate bound = %v, want conservative", got)
	}
	// Past the predicted duration, RT clamps and the bound grows but
	// stays finite.
	h = Heuristic{EstimatedAvgDegree: 2.0, Flexibility: 0.1}
	st = baseState()
	st.Elapsed = time.Hour
	got = h.UpperBound(st)
	if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
		t.Fatalf("past-schedule bound = %v", got)
	}
}

func TestBoundTableValidation(t *testing.T) {
	durs := []time.Duration{time.Minute, 2 * time.Minute}
	degs := []float64{2, 3}
	good := [][]float64{{1, 2}, {3, 4}}
	if _, err := NewBoundTable(nil, degs, good); err == nil {
		t.Error("empty durations accepted")
	}
	if _, err := NewBoundTable(durs, nil, good); err == nil {
		t.Error("empty degrees accepted")
	}
	if _, err := NewBoundTable([]time.Duration{2 * time.Minute, time.Minute}, degs, good); err == nil {
		t.Error("descending durations accepted")
	}
	if _, err := NewBoundTable(durs, []float64{3, 2}, good); err == nil {
		t.Error("descending degrees accepted")
	}
	if _, err := NewBoundTable(durs, degs, [][]float64{{1, 2}}); err == nil {
		t.Error("row count mismatch accepted")
	}
	if _, err := NewBoundTable(durs, degs, [][]float64{{1}, {2}}); err == nil {
		t.Error("column count mismatch accepted")
	}
	tbl, err := NewBoundTable(durs, degs, good)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tbl.durations); got != 2 {
		t.Errorf("duration axis len = %d", got)
	}
	if got := len(tbl.Degrees()); got != 2 {
		t.Errorf("Degrees len = %d", got)
	}
}

func TestBoundTableLookup(t *testing.T) {
	tbl := mustTable(t)
	tests := []struct {
		name   string
		d      time.Duration
		degree float64
		want   float64
	}{
		{"exact cell", 15 * time.Minute, 3.0, 3.2},
		{"duration rounds up", 10 * time.Minute, 3.0, 3.2},
		{"duration above range clamps", 2 * time.Hour, 3.0, 2.2},
		{"duration below range", time.Minute, 3.0, 4.0},
		{"degree rounds down", 15 * time.Minute, 3.5, 3.2},
		{"degree below range clamps", 15 * time.Minute, 1.0, 3.0},
		{"degree above range clamps", 15 * time.Minute, 9.0, 3.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tbl.Lookup(tt.d, tt.degree); got != tt.want {
				t.Fatalf("Lookup(%v, %v) = %v, want %v", tt.d, tt.degree, got, tt.want)
			}
		})
	}
}

func TestAdaptiveDoublingRule(t *testing.T) {
	tbl := mustTable(t)
	a := Adaptive{Table: tbl}
	if a.Name() != "adaptive" {
		t.Errorf("Name = %q", a.Name())
	}

	// Before evidence accumulates, the floor (2 min) governs; with the
	// average degree at max, BDu_e = 2 min -> the 5-min row.
	st := baseState()
	st.Elapsed = 0
	st.AvgDegree = 4
	if got := a.UpperBound(st); got != 4.0 {
		t.Fatalf("early bound = %v, want 4.0 (5-min row)", got)
	}

	// Twenty minutes into a burst, the doubling rule predicts 40 min ->
	// clamps to the conservative 30-min row.
	st.Elapsed = 20 * time.Minute
	if got := a.UpperBound(st); got != 2.2 {
		t.Fatalf("late bound = %v, want 2.2 (30-min row)", got)
	}

	// The bound never rises as the burst drags on (same avg degree).
	prev := math.Inf(1)
	for _, el := range []time.Duration{0, 2 * time.Minute, 5 * time.Minute, 10 * time.Minute, 20 * time.Minute} {
		st.Elapsed = el
		got := a.UpperBound(st)
		if got > prev {
			t.Fatalf("bound rose with elapsed %v: %v > %v", el, got, prev)
		}
		prev = got
	}
}

func TestAdaptiveWithoutTable(t *testing.T) {
	st := baseState()
	if got := (Adaptive{}).UpperBound(st); got != st.MaxDegree {
		t.Fatalf("nil-table bound = %v, want MaxDegree", got)
	}
}

func TestAdaptiveCustomFloor(t *testing.T) {
	tbl := mustTable(t)
	a := Adaptive{Table: tbl, MinDuration: 30 * time.Minute}
	st := baseState()
	st.Elapsed = 0
	st.AvgDegree = 4
	if got := a.UpperBound(st); got != 2.2 {
		t.Fatalf("floored bound = %v, want 2.2 (30-min row)", got)
	}
}

func TestBoundTableJSONRoundTrip(t *testing.T) {
	orig := mustTable(t)
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back BoundTable
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for _, d := range []time.Duration{time.Minute, 10 * time.Minute, time.Hour} {
		for _, deg := range []float64{1.5, 3.0, 4.5} {
			if got, want := back.Lookup(d, deg), orig.Lookup(d, deg); got != want {
				t.Fatalf("Lookup(%v, %v) = %v after round trip, want %v", d, deg, got, want)
			}
		}
	}
}

func TestBoundTableUnmarshalRejectsCorruption(t *testing.T) {
	tests := []struct {
		name, in string
	}{
		{"not json", "nope"},
		{"descending durations", `{"durations_sec":[600,300],"degrees":[2],"bounds":[[1],[2]]}`},
		{"row mismatch", `{"durations_sec":[300,600],"degrees":[2],"bounds":[[1]]}`},
		{"column mismatch", `{"durations_sec":[300],"degrees":[2,3],"bounds":[[1]]}`},
		{"empty axes", `{"durations_sec":[],"degrees":[],"bounds":[]}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var tbl BoundTable
			if err := json.Unmarshal([]byte(tt.in), &tbl); err == nil {
				t.Fatalf("accepted %q", tt.in)
			}
		})
	}
}
