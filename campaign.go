package dcsprint

// This file is the campaign facade: deterministic scenario sweeps at scale,
// and the paper's Oracle search built on them. The engine (internal/campaign)
// shards a grid across a bounded worker pool with order-preserving,
// first-error semantics and streams progress metrics into a telemetry
// registry. See DESIGN.md's "Campaign engine" section.

import (
	"context"
	"time"

	"dcsprint/internal/campaign"
)

type (
	// CampaignOptions configures a sweep: its only field is the worker
	// count; see campaign.Options.
	CampaignOptions = campaign.Options
	// CampaignResult summarizes a completed sweep; see campaign.Report.
	CampaignResult = campaign.Report
	// OracleResult is an Oracle exhaustive-search outcome; see
	// campaign.OracleResult.
	OracleResult = campaign.OracleResult
	// TraceMaker builds a demand trace for a parametric burst, used to
	// populate bound tables; see campaign.TraceMaker.
	TraceMaker = campaign.TraceMaker
)

// Sweep runs fn over every item on the campaign engine and returns the
// results in item order; see campaign.Sweep for the full contract
// (order-preserving, cancel-on-first-error, one goroutine per worker).
func Sweep[T, R any](ctx context.Context, opts CampaignOptions, items []T, fn func(context.Context, T) (R, error)) ([]R, *CampaignResult, error) {
	return campaign.Sweep(ctx, opts, items, fn)
}

// OracleSearch finds the optimal constant degree bound with perfect burst
// knowledge (the paper's Oracle strategy): it runs every candidate bound as
// one sweep and keeps the first best; see campaign.OracleSearch.
func OracleSearch(ctx context.Context, opts CampaignOptions, sc Scenario) (*OracleResult, error) {
	return campaign.OracleSearch(ctx, opts, sc)
}

// BuildBoundTable populates the Prediction strategy's lookup table by
// Oracle-searching a grid of parametric bursts, the grid cells sharded
// across the worker pool; see campaign.BuildBoundTable.
func BuildBoundTable(ctx context.Context, opts CampaignOptions, base Scenario,
	mk func(degree float64, d time.Duration) (*Series, error),
	durations []time.Duration, degrees []float64) (*BoundTable, error) {
	return campaign.BuildBoundTable(ctx, opts, base, mk, durations, degrees)
}
