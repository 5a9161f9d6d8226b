package dcsprint

import (
	"context"
	"testing"
	"time"
)

// mustTrace unwraps a trace-generator result, panicking (and so failing
// the test) on error, in the style of template.Must.
func mustTrace(s *Series, err error) *Series {
	if err != nil {
		panic(err)
	}
	return s
}

func TestFacadeQuickstart(t *testing.T) {
	res, err := Run(Scenario{
		Name:  "quickstart",
		Trace: mustTrace(YahooTrace(7, 3.2, 15*time.Minute)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Improvement() <= 1.5 {
		t.Fatalf("improvement = %v", res.Improvement())
	}
}

func TestFacadeStrategies(t *testing.T) {
	st := State{MaxDegree: 4, Demand: 3}
	if got := Greedy().UpperBound(st); got != 4 {
		t.Errorf("Greedy bound = %v", got)
	}
	if got := FixedBound(2.5).UpperBound(st); got != 2.5 {
		t.Errorf("FixedBound = %v", got)
	}
	if got := Heuristic(2, 0.1).Name(); got != "heuristic" {
		t.Errorf("Heuristic name = %q", got)
	}
	if got := Prediction(time.Minute, nil).Name(); got != "prediction" {
		t.Errorf("Prediction name = %q", got)
	}
}

func TestFacadeTraces(t *testing.T) {
	if mustTrace(MSTrace(1)).Duration() != 30*time.Minute {
		t.Error("MSTrace duration")
	}
	if mustTrace(YahooTrace(1, 3, 10*time.Minute)).Duration() != 30*time.Minute {
		t.Error("YahooTrace duration")
	}
	if mustTrace(YahooServerTrace(1)).Duration() != 30*time.Minute {
		t.Error("YahooServerTrace duration")
	}
	if mustTrace(DayTrace(1)).Duration() != 24*time.Hour {
		t.Error("DayTrace duration")
	}
	st := AnalyzeTrace(mustTrace(MSTrace(1)))
	if st.AggregateDuration != 972*time.Second {
		t.Errorf("MS burst duration = %v", st.AggregateDuration)
	}
}

func TestFacadeTestbed(t *testing.T) {
	res, err := RunTestbed(DefaultTestbed(), mustTrace(YahooServerTrace(7)), TestbedCBOnly)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tripped {
		t.Fatal("CB-only must trip")
	}
	pts, err := SweepTestbed(DefaultTestbed(), mustTrace(YahooServerTrace(7)),
		[]time.Duration{10 * time.Second, time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("sweep points = %d", len(pts))
	}
	if len(TestbedPolicies()) != 3 {
		t.Fatal("TestbedPolicies")
	}
}

func TestFacadeEconomics(t *testing.T) {
	m := DefaultEconomics()
	if got := m.MonthlyCoreCost(4); got != 468750 {
		t.Fatalf("MonthlyCoreCost(4) = %v", got)
	}
}

func TestFacadeOracleAndTable(t *testing.T) {
	tr := mustTrace(YahooTrace(7, 3.0, 5*time.Minute))
	or, err := OracleSearch(context.Background(), CampaignOptions{}, Scenario{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if or.Bound < 1 || or.Bound > 4 {
		t.Fatalf("oracle bound = %v", or.Bound)
	}
	tbl, err := BuildBoundTable(context.Background(), CampaignOptions{}, Scenario{},
		func(degree float64, d time.Duration) (*Series, error) { return YahooTrace(7, degree, d) },
		[]time.Duration{5 * time.Minute, 15 * time.Minute},
		[]float64{3.0},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Lookup(5*time.Minute, 3.0); got < 1 || got > 4 {
		t.Fatalf("table bound = %v", got)
	}
}

func TestReplayAdmissionSprintingReducesDrops(t *testing.T) {
	burst := mustTrace(YahooTrace(7, 3.0, 12*time.Minute))
	queue := AdmissionConfig{QueueDepth: 30, MaxDelay: 20 * time.Second}

	sprint, err := Run(Scenario{Trace: burst})
	if err != nil {
		t.Fatal(err)
	}
	noSprint, err := Run(Scenario{Trace: burst, Strategy: FixedBound(1)})
	if err != nil {
		t.Fatal(err)
	}
	stSprint, err := ReplayAdmission(sprint, queue)
	if err != nil {
		t.Fatal(err)
	}
	stNo, err := ReplayAdmission(noSprint, queue)
	if err != nil {
		t.Fatal(err)
	}
	if stSprint.DropRate >= stNo.DropRate {
		t.Fatalf("sprinting drop rate %.3f not below no-sprinting %.3f",
			stSprint.DropRate, stNo.DropRate)
	}
	if stSprint.MeanDelay >= stNo.MeanDelay {
		t.Fatalf("sprinting mean delay %v not below no-sprinting %v",
			stSprint.MeanDelay, stNo.MeanDelay)
	}
	if stNo.DropRate < 0.1 {
		t.Fatalf("no-sprinting drop rate %.3f suspiciously low for a 3x burst", stNo.DropRate)
	}
	// The deadline is honored either way.
	if stSprint.MaxDelay > 20*time.Second || stNo.MaxDelay > 20*time.Second {
		t.Fatal("deadline violated")
	}
}

func TestFacadeAdaptiveAndSupply(t *testing.T) {
	tbl, err := StandardBoundTable(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := Adaptive(tbl).Name(); got != "adaptive" {
		t.Fatalf("Adaptive name = %q", got)
	}
	dip := mustTrace(SupplyDip(30*time.Minute, time.Second, 10*time.Minute, 5*time.Minute, 0.6))
	if got := dip.At(12 * time.Minute); got != 0.6 {
		t.Fatalf("dip value = %v", got)
	}
	if got := dip.At(20 * time.Minute); got != 1 {
		t.Fatalf("post-dip value = %v", got)
	}
	if got := dip.Len(); got != 1800 {
		t.Fatalf("dip length = %d", got)
	}
}
