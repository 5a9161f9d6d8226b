package campaign

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"dcsprint/internal/core"
	"dcsprint/internal/sim"
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

// oracleScenarios are the traces the Oracle's definition is pinned on: the
// standard Yahoo burst, a taller-and-shorter burst, the MS consecutive-burst
// trace, and a skewed facility.
func oracleScenarios(t *testing.T) map[string]sim.Scenario {
	t.Helper()
	yahoo, err := workload.SyntheticYahoo(7, 3.2, 15*time.Minute)
	if err != nil {
		t.Fatalf("yahoo: %v", err)
	}
	tall, err := workload.SyntheticYahoo(11, 3.8, 6*time.Minute)
	if err != nil {
		t.Fatalf("tall: %v", err)
	}
	ms, err := workload.SyntheticMS(7)
	if err != nil {
		t.Fatalf("ms: %v", err)
	}
	return map[string]sim.Scenario{
		"yahoo": {Name: "yahoo", Trace: yahoo},
		"tall":  {Name: "tall", Trace: tall},
		"ms":    {Name: "ms", Trace: ms},
		"skew": {Name: "skew", Trace: yahoo,
			Weights: []float64{1.3, 0.7, 1, 1, 1, 1, 1, 1, 1, 1}},
	}
}

// firstMaximiser is the Oracle by definition: sim.Run at every candidate
// bound, one per activatable core count, serially and in ascending order,
// keeping the first bound with the highest average burst performance.
func firstMaximiser(t *testing.T, sc sim.Scenario) (float64, *sim.Result) {
	t.Helper()
	nsc, err := sc.Normalized()
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	var bound float64
	var best *sim.Result
	for n := nsc.Server.NormalCores; n <= nsc.Server.TotalCores; n++ {
		b := nsc.Server.Degree(n)
		c := nsc
		c.Strategy = core.FixedBound{Bound: b}
		res, err := sim.Run(c)
		if err != nil {
			t.Fatalf("run at bound %v: %v", b, err)
		}
		if best == nil || res.AvgBurstPerformance > best.AvgBurstPerformance {
			bound, best = b, res
		}
	}
	return bound, best
}

func TestOracleSearchMatchesSim(t *testing.T) {
	for name, sc := range oracleScenarios(t) {
		t.Run(name, func(t *testing.T) {
			wantBound, want := firstMaximiser(t, sc)
			got, err := OracleSearch(context.Background(), Options{}, sc)
			if err != nil {
				t.Fatalf("OracleSearch: %v", err)
			}
			if got.Bound != wantBound {
				t.Fatalf("oracle bound %v, first maximiser %v", got.Bound, wantBound)
			}
			if !reflect.DeepEqual(got.Result, want) {
				t.Fatal("oracle Result differs from sim.Run at its bound")
			}
		})
	}
}

func TestOracleSearchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := OracleSearch(ctx, Options{}, oracleScenarios(t)["yahoo"]); err == nil {
		t.Fatal("canceled oracle search returned no error")
	}
}

func TestOracleSearchPropagatesErrors(t *testing.T) {
	if _, err := OracleSearch(context.Background(), Options{}, sim.Scenario{}); err == nil {
		t.Fatal("empty scenario accepted")
	}
}

func TestBuildBoundTableMatchesSim(t *testing.T) {
	base := sim.Scenario{Name: "table"}
	durations := []time.Duration{5 * time.Minute, 10 * time.Minute}
	degrees := []float64{2.0, 3.0}
	tm := func(degree float64, d time.Duration) (*trace.Series, error) {
		return workload.SyntheticYahoo(3, degree, d)
	}
	got, err := BuildBoundTable(context.Background(), Options{}, base, tm, durations, degrees)
	if err != nil {
		t.Fatalf("BuildBoundTable: %v", err)
	}
	for _, d := range durations {
		for _, deg := range degrees {
			sc := base
			sc.Trace = mustTrace(tm(deg, d))
			want, _ := firstMaximiser(t, sc)
			if b := got.Lookup(d, deg); b != want {
				t.Fatalf("cell (%v, %v): table bound %v, first maximiser %v", d, deg, b, want)
			}
		}
	}
}

func TestBuildBoundTablePropagatesErrors(t *testing.T) {
	_, err := BuildBoundTable(context.Background(), Options{}, sim.Scenario{},
		func(degree float64, d time.Duration) (*trace.Series, error) {
			return nil, errors.New("synthesis failed") // bad maker
		},
		[]time.Duration{5 * time.Minute},
		[]float64{3.0},
	)
	if err == nil {
		t.Fatal("nil-trace maker accepted")
	}
}

func TestOracleMatchesGreedyOnShortBurst(t *testing.T) {
	// Fig 10(a): for a 5-minute burst the stored energy is not exhausted,
	// so Greedy achieves the Oracle's performance.
	tr := mustTrace(workload.SyntheticYahoo(7, 3.0, 5*time.Minute))
	greedy, err := sim.Run(sim.Scenario{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := OracleSearch(context.Background(), Options{}, sim.Scenario{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if diff := oracle.Result.Improvement() - greedy.Improvement(); diff > 0.02 {
		t.Fatalf("short burst: oracle %.3f vs greedy %.3f", oracle.Result.Improvement(), greedy.Improvement())
	}
}

func TestOracleBeatsGreedyOnLongBurst(t *testing.T) {
	// Fig 10(b): for a 15-minute burst the stored energy runs out, and the
	// Oracle's constrained bound outperforms Greedy.
	tr := mustTrace(workload.SyntheticYahoo(7, 3.4, 15*time.Minute))
	greedy, err := sim.Run(sim.Scenario{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := OracleSearch(context.Background(), Options{}, sim.Scenario{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Result.Improvement() < greedy.Improvement() {
		t.Fatalf("long burst: oracle %.4f below greedy %.4f", oracle.Result.Improvement(), greedy.Improvement())
	}
	if oracle.Bound >= 4 {
		t.Fatalf("oracle bound = %v, want a constrained (<4) bound on a long burst", oracle.Bound)
	}
}

func TestPredictionTracksOracle(t *testing.T) {
	tbl, err := BuildBoundTable(context.Background(), Options{},
		sim.Scenario{},
		func(degree float64, d time.Duration) (*trace.Series, error) {
			return workload.SyntheticYahoo(7, degree, d)
		},
		[]time.Duration{5 * time.Minute, 10 * time.Minute, 15 * time.Minute, 20 * time.Minute},
		[]float64{2.6, 3.0, 3.4},
	)
	if err != nil {
		t.Fatalf("BuildBoundTable: %v", err)
	}
	tr := mustTrace(workload.SyntheticYahoo(7, 3.4, 15*time.Minute))
	st := workload.Analyze(tr)

	pred, err := sim.Run(sim.Scenario{
		Trace:    tr,
		Strategy: core.Prediction{PredictedDuration: st.AggregateDuration, Table: tbl},
	})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := OracleSearch(context.Background(), Options{}, sim.Scenario{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := sim.Run(sim.Scenario{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	// §VII-B: with zero estimation error, Prediction approaches Oracle and
	// beats Greedy on long bursts.
	if pred.Improvement() < greedy.Improvement()-0.01 {
		t.Fatalf("prediction %.4f below greedy %.4f", pred.Improvement(), greedy.Improvement())
	}
	if pred.Improvement() > oracle.Result.Improvement()+0.01 {
		t.Fatalf("prediction %.4f above oracle %.4f (oracle must dominate)", pred.Improvement(), oracle.Result.Improvement())
	}
	if oracle.Result.Improvement()-pred.Improvement() > 0.15 {
		t.Fatalf("prediction %.4f far from oracle %.4f", pred.Improvement(), oracle.Result.Improvement())
	}
}

func TestHeuristicEndToEnd(t *testing.T) {
	tr := mustTrace(workload.SyntheticYahoo(7, 3.4, 15*time.Minute))
	greedy, err := sim.Run(sim.Scenario{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	// SDe_p from the Oracle's bound (the "real best average sprinting
	// degree" proxy), zero estimation error.
	oracle, err := OracleSearch(context.Background(), Options{}, sim.Scenario{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	heur, err := sim.Run(sim.Scenario{
		Trace:    tr,
		Strategy: core.Heuristic{EstimatedAvgDegree: oracle.Bound, Flexibility: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if heur.Improvement() < greedy.Improvement()-0.05 {
		t.Fatalf("heuristic %.4f well below greedy %.4f", heur.Improvement(), greedy.Improvement())
	}
	if heur.TrippedAt >= 0 {
		t.Fatal("heuristic run tripped")
	}
}
