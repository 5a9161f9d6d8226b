package campaign

import (
	"context"
	"fmt"
	"time"

	"dcsprint/internal/core"
	"dcsprint/internal/sim"
	"dcsprint/internal/trace"
)

// OracleResult is the outcome of an Oracle exhaustive search.
type OracleResult struct {
	// Bound is the optimal constant sprinting-degree upper bound.
	Bound float64
	// Result is the run achieved at that bound.
	Result *sim.Result
}

// Improvement returns the headline metric of the run achieved at the optimal
// bound — shorthand for r.Result.Improvement().
func (r *OracleResult) Improvement() float64 { return r.Result.Improvement() }

// TraceMaker builds a demand trace for a parametric burst, used to populate
// the bound table (e.g. the Yahoo generator with a fixed seed).
type TraceMaker func(degree float64, duration time.Duration) (*trace.Series, error)

// OracleSearch implements the paper's Oracle strategy (§V-A): with perfect
// knowledge of the burst (the full trace), it tries every constant
// sprinting-degree upper bound the chip can realize (one per activatable core
// count) and returns the first one maximizing the average burst performance,
// with the run achieved there. The candidates run as one Sweep.
func OracleSearch(ctx context.Context, opts Options, sc sim.Scenario) (*OracleResult, error) {
	nsc, err := sc.Normalized()
	if err != nil {
		return nil, err
	}
	srv := nsc.Server
	bounds := make([]float64, 0, srv.TotalCores-srv.NormalCores+1)
	for n := srv.NormalCores; n <= srv.TotalCores; n++ {
		bounds = append(bounds, srv.Degree(n))
	}
	results, _, err := Sweep(ctx, opts, bounds, func(_ context.Context, b float64) (*sim.Result, error) {
		c := nsc
		c.Strategy = core.FixedBound{Bound: b}
		return sim.Run(c)
	})
	if err != nil {
		return nil, err
	}
	best := -1
	for i, r := range results {
		if best < 0 || r.AvgBurstPerformance > results[best].AvgBurstPerformance {
			best = i
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("campaign: oracle search over no candidates")
	}
	return &OracleResult{Bound: bounds[best], Result: results[best]}, nil
}

// BuildBoundTable populates the Prediction strategy's lookup table by
// oracle-searching every (duration, degree) grid cell, with the cells spread
// across the campaign worker pool.
func BuildBoundTable(ctx context.Context, opts Options, base sim.Scenario, mk TraceMaker, durations []time.Duration, degrees []float64) (*core.BoundTable, error) {
	type cell struct{ i, j int }
	cells := make([]cell, 0, len(durations)*len(degrees))
	for i := range durations {
		for j := range degrees {
			cells = append(cells, cell{i, j})
		}
	}
	// Cells already saturate the pool; each cell's inner search stays serial
	// (one worker) so the fan-out is bounded by Options.Workers overall.
	cellOpts := opts
	cellOpts.Workers = 1
	vals, _, err := Sweep(ctx, opts, cells, func(ctx context.Context, c cell) (float64, error) {
		sc := base
		tr, err := mk(degrees[c.j], durations[c.i])
		if err != nil {
			return 0, err
		}
		sc.Trace = tr
		or, err := OracleSearch(ctx, cellOpts, sc)
		if err != nil {
			return 0, err
		}
		return or.Bound, nil
	})
	if err != nil {
		return nil, err
	}
	bounds := make([][]float64, len(durations))
	for i := range bounds {
		bounds[i] = make([]float64, len(degrees))
	}
	for k, c := range cells {
		bounds[c.i][c.j] = vals[k]
	}
	return core.NewBoundTable(durations, degrees, bounds)
}
