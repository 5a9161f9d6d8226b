package dcsprint

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"dcsprint/internal/breaker"
	"dcsprint/internal/campaign"
	"dcsprint/internal/core"
	"dcsprint/internal/economics"
	"dcsprint/internal/faults"
	"dcsprint/internal/fleet"
	"dcsprint/internal/sim"
	"dcsprint/internal/testbed"
	"dcsprint/internal/units"
	"dcsprint/internal/ups"
	"dcsprint/internal/workload"
)

// This file regenerates every table and figure of the paper's evaluation
// (§VI-§VII). Each FigN function returns the figure's data; cmd/experiments
// prints the rows and EXPERIMENTS.md records paper-versus-measured.
//
// Every fan-out below rides the campaign engine (internal/campaign), which
// keeps results in item order with first-error semantics, so the batch
// results are bit-identical to a serial loop regardless of the worker count.

// sweepCtx adapts the experiments' context-free per-item functions onto
// campaign.Sweep.
func sweepCtx[T, R any](ctx context.Context, opts campaign.Options, items []T, fn func(T) (R, error)) ([]R, error) {
	out, _, err := campaign.Sweep(ctx, opts, items, func(_ context.Context, v T) (R, error) {
		return fn(v)
	})
	return out, err
}

// CurvePoint is one point of the Fig 2 breaker trip curve.
type CurvePoint struct {
	// OverloadPercent is the overload above rating, in percent.
	OverloadPercent float64
	// TripTime is the time to trip at that constant overload.
	TripTime time.Duration
	// Instant marks the magnetic (no-intentional-delay) region.
	Instant bool
}

// Fig2TripCurve samples the Bulletin 1489-A long-delay trip curve the
// simulator uses (Fig 2).
func Fig2TripCurve(overloadPercents []float64) []CurvePoint {
	c := breaker.Bulletin1489A()
	out := make([]CurvePoint, 0, len(overloadPercents))
	for _, pct := range overloadPercents {
		r := 1 + pct/100
		d, trips := c.TripTime(r)
		p := CurvePoint{OverloadPercent: pct}
		switch {
		case !trips:
			p.TripTime = -1 // never trips
		case d == 0:
			p.Instant = true
		default:
			p.TripTime = d
		}
		out = append(out, p)
	}
	return out
}

// PhaseWindows locates the three-phase timeline of a run (Fig 4).
type PhaseWindows struct {
	// Phase1Start..Phase3Start are the first ticks of each phase;
	// -1 when the phase never occurred.
	Phase1Start, Phase2Start, Phase3Start time.Duration
	// SprintEnd is the last tick of any sprinting phase; -1 without one.
	SprintEnd time.Duration
}

// Phases extracts the phase windows from a run's telemetry.
func Phases(r *Result) PhaseWindows {
	w := PhaseWindows{Phase1Start: -1, Phase2Start: -1, Phase3Start: -1, SprintEnd: -1}
	step := r.Telemetry.Required.Step
	for i, p := range r.Telemetry.Phase {
		t := time.Duration(i) * step
		switch p {
		case 1:
			if w.Phase1Start < 0 {
				w.Phase1Start = t
			}
		case 2:
			if w.Phase2Start < 0 {
				w.Phase2Start = t
			}
		case 3:
			if w.Phase3Start < 0 {
				w.Phase3Start = t
			}
		}
		if p > 0 {
			w.SprintEnd = t
		}
	}
	return w
}

// Fig4 runs the MS trace under Greedy at the paper defaults and returns the
// run (whose telemetry carries the Fig 4 power timelines: PDULoad and
// DCLoad against PDURated and DCRated) plus the phase windows.
func Fig4(seed int64) (*Result, PhaseWindows, error) {
	tr, err := MSTrace(seed)
	if err != nil {
		return nil, PhaseWindows{}, err
	}
	res, err := Run(Scenario{Name: "fig4", Trace: tr})
	if err != nil {
		return nil, PhaseWindows{}, err
	}
	return res, Phases(res), nil
}

// Fig5Row is one x-axis point of Fig 5; see economics.Fig5Row.
type Fig5Row = economics.Fig5Row

// Fig5 reproduces both panels of Fig 5: monthly cost and revenues versus
// the maximum sprinting degree, for Ut = 4 U0 (panel a) and 6 U0 (panel b).
func Fig5(degrees []float64) (panelA, panelB []Fig5Row) {
	m := economics.Default()
	return economics.Fig5(m, 4, degrees), economics.Fig5(m, 6, degrees)
}

// Fig8Data compares uncontrolled chip-level sprinting with Data Center
// Sprinting under Greedy on the MS trace (Fig 8 and the §VII-A energy
// split).
type Fig8Data struct {
	// Uncontrolled is the Fig 8(a) run; it trips and dies.
	Uncontrolled *Result
	// Controlled is the Fig 8(b) run (DCS with Greedy).
	Controlled *Result
	// UncontrolledTrip is when the uncontrolled run tripped its breaker.
	UncontrolledTrip time.Duration
	// UPSShare, TESShare, CBShare split the controlled run's additional
	// energy (paper: UPS 54%, TES 13%).
	UPSShare, TESShare, CBShare float64
}

// Fig8 runs both Fig 8 scenarios on the MS trace.
func Fig8(seed int64) (*Fig8Data, error) {
	tr, err := MSTrace(seed)
	if err != nil {
		return nil, err
	}
	unc, err := Run(Scenario{Name: "fig8-uncontrolled", Trace: tr, Uncontrolled: true})
	if err != nil {
		return nil, err
	}
	ctl, err := Run(Scenario{Name: "fig8-dcs", Trace: tr})
	if err != nil {
		return nil, err
	}
	d := &Fig8Data{Uncontrolled: unc, Controlled: ctl, UncontrolledTrip: unc.TrippedAt}
	if total := float64(ctl.Split.Total()); total > 0 {
		d.UPSShare = float64(ctl.Split.UPS) / total
		d.TESShare = float64(ctl.Split.TES) / total
		d.CBShare = float64(ctl.Split.CBOverload) / total
	}
	return d, nil
}

// standardTableOnce caches the Oracle-built bound table per seed: building
// it runs ~1300 simulations, and Fig 9, Fig 10 and the benchmarks all share
// the same table, exactly as a deployed Prediction strategy would.
var standardTableOnce struct {
	sync.Mutex
	tables map[int64]*BoundTable
}

// StandardBoundTable returns the Oracle-built table over the standard
// parametric-burst grid (durations 2-30 min, degrees 2.0-3.6).
func StandardBoundTable(seed int64) (*BoundTable, error) {
	return standardBoundTable(context.Background(), seed)
}

func standardBoundTable(ctx context.Context, seed int64) (*BoundTable, error) {
	standardTableOnce.Lock()
	defer standardTableOnce.Unlock()
	if tbl, ok := standardTableOnce.tables[seed]; ok {
		return tbl, nil
	}
	tbl, err := campaign.BuildBoundTable(ctx, campaign.Options{},
		Scenario{},
		func(degree float64, d time.Duration) (*Series, error) {
			return YahooTrace(seed, degree, d)
		},
		[]time.Duration{2 * time.Minute, 5 * time.Minute, 10 * time.Minute,
			15 * time.Minute, 20 * time.Minute, 25 * time.Minute, 30 * time.Minute},
		[]float64{2.0, 2.4, 2.8, 3.2, 3.6},
	)
	if err != nil {
		return nil, err
	}
	if standardTableOnce.tables == nil {
		standardTableOnce.tables = make(map[int64]*BoundTable)
	}
	standardTableOnce.tables[seed] = tbl
	return tbl, nil
}

// Fig9Row is one estimation-error point of Fig 9: the average burst
// performance of the four strategies on the MS trace.
type Fig9Row struct {
	// ErrorPercent is the estimation error applied to the Prediction and
	// Heuristic inputs (-100 .. +100).
	ErrorPercent float64
	// Greedy..Oracle are average burst performances (x over no-sprint).
	Greedy, Prediction, Heuristic, Oracle float64
}

// Fig9 reproduces Fig 9: strategy performance on the MS trace as the
// estimation error varies. Greedy and Oracle need no estimate and are
// constant across rows.
func Fig9(seed int64, errorPercents []float64) ([]Fig9Row, error) {
	tr, err := MSTrace(seed)
	if err != nil {
		return nil, err
	}
	stats := workload.Analyze(tr)
	tbl, err := StandardBoundTable(seed)
	if err != nil {
		return nil, err
	}
	greedy, err := Run(Scenario{Name: "fig9-greedy", Trace: tr})
	if err != nil {
		return nil, err
	}
	oracle, err := OracleSearch(context.Background(), CampaignOptions{}, Scenario{Name: "fig9-oracle", Trace: tr})
	if err != nil {
		return nil, err
	}
	realEstimate := Estimate{
		BurstDuration: stats.AggregateDuration,
		AvgDegree:     oracle.Result.AvgBurstDegree(),
	}
	rows, err := sweepCtx(context.Background(), campaign.Options{}, errorPercents, func(pct float64) (Fig9Row, error) {
		est := realEstimate.WithError(pct / 100)
		pred, err := Run(Scenario{
			Name:     fmt.Sprintf("fig9-pred-%+.0f%%", pct),
			Trace:    tr,
			Strategy: Prediction(est.BurstDuration, tbl),
		})
		if err != nil {
			return Fig9Row{}, err
		}
		heur, err := Run(Scenario{
			Name:     fmt.Sprintf("fig9-heur-%+.0f%%", pct),
			Trace:    tr,
			Strategy: Heuristic(est.AvgDegree, 0.10),
		})
		if err != nil {
			return Fig9Row{}, err
		}
		return Fig9Row{
			ErrorPercent: pct,
			Greedy:       greedy.Improvement(),
			Prediction:   pred.Improvement(),
			Heuristic:    heur.Improvement(),
			Oracle:       oracle.Result.Improvement(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Fig10Row is one burst-degree point of Fig 10.
type Fig10Row struct {
	// BurstDegree is the injected Yahoo burst degree.
	BurstDegree float64
	// Greedy..Oracle are average burst performances with zero estimation
	// error.
	Greedy, Prediction, Heuristic, Oracle float64
}

// Fig10 reproduces one panel of Fig 10: the four strategies on the Yahoo
// trace across burst degrees for a fixed burst duration (panel a: 5 min,
// panel b: 15 min), with zero estimation error.
func Fig10(seed int64, duration time.Duration, degrees []float64) ([]Fig10Row, error) {
	tbl, err := StandardBoundTable(seed)
	if err != nil {
		return nil, err
	}
	rows, err := sweepCtx(context.Background(), campaign.Options{}, degrees, func(degree float64) (Fig10Row, error) {
		tr, err := YahooTrace(seed, degree, duration)
		if err != nil {
			return Fig10Row{}, err
		}
		stats := workload.Analyze(tr)
		greedy, err := Run(Scenario{Trace: tr})
		if err != nil {
			return Fig10Row{}, err
		}
		oracle, err := OracleSearch(context.Background(), CampaignOptions{}, Scenario{Trace: tr})
		if err != nil {
			return Fig10Row{}, err
		}
		pred, err := Run(Scenario{
			Trace:    tr,
			Strategy: Prediction(stats.AggregateDuration, tbl),
		})
		if err != nil {
			return Fig10Row{}, err
		}
		heur, err := Run(Scenario{
			Trace:    tr,
			Strategy: Heuristic(oracle.Result.AvgBurstDegree(), 0.10),
		})
		if err != nil {
			return Fig10Row{}, err
		}
		return Fig10Row{
			BurstDegree: degree,
			Greedy:      greedy.Improvement(),
			Prediction:  pred.Improvement(),
			Heuristic:   heur.Improvement(),
			Oracle:      oracle.Result.Improvement(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Fig11Data is the testbed evaluation (Fig 11).
type Fig11Data struct {
	// PowerRun is the Fig 11(a) run (reserved trip time 10 s): total
	// server power versus breaker share over time.
	PowerRun *TestbedResult
	// Sweep is Fig 11(b): sustained time versus reserved trip time for
	// our policy and CB First.
	Sweep []TestbedSweepPoint
	// CBOnly is the sustained time without the UPS (paper: 65 s).
	CBOnly time.Duration
}

// Fig11 reproduces the hardware-testbed evaluation on the emulator.
func Fig11(seed int64, reserves []time.Duration) (*Fig11Data, error) {
	util, err := YahooServerTrace(seed)
	if err != nil {
		return nil, err
	}
	cfg := DefaultTestbed()

	cfg10 := cfg
	cfg10.ReservedTripTime = 10 * time.Second
	power, err := RunTestbed(cfg10, util, TestbedOurs)
	if err != nil {
		return nil, err
	}
	sweep, err := SweepTestbed(cfg, util, reserves)
	if err != nil {
		return nil, err
	}
	only, err := RunTestbed(cfg, util, TestbedCBOnly)
	if err != nil {
		return nil, err
	}
	return &Fig11Data{PowerRun: power, Sweep: sweep, CBOnly: only.Sustained}, nil
}

// SweepRow is one x-axis point of a sensitivity sweep (extensions E1/E2).
type SweepRow struct {
	// X is the swept parameter (headroom fraction or PUE).
	X float64
	// Greedy and Prediction are average burst performances.
	Greedy, Prediction float64
}

// HeadroomSweep measures sprinting performance across DC-level provisioning
// headrooms (the paper tests 0-20%, §VI-A) on the 15-minute Yahoo burst.
func HeadroomSweep(seed int64, headrooms []float64) ([]SweepRow, error) {
	tbl, err := StandardBoundTable(seed)
	if err != nil {
		return nil, err
	}
	tr, err := YahooTrace(seed, 3.2, 15*time.Minute)
	if err != nil {
		return nil, err
	}
	stats := workload.Analyze(tr)
	return sweepCtx(context.Background(), campaign.Options{}, headrooms, func(h float64) (SweepRow, error) {
		base := Scenario{Trace: tr, DCHeadroom: h, ExplicitZeroHeadroom: h == 0}
		g, err := Run(base)
		if err != nil {
			return SweepRow{}, err
		}
		p := base
		p.Strategy = Prediction(stats.AggregateDuration, tbl)
		pr, err := Run(p)
		if err != nil {
			return SweepRow{}, err
		}
		return SweepRow{X: h, Greedy: g.Improvement(), Prediction: pr.Improvement()}, nil
	})
}

// PUESweep measures sprinting performance across facility PUEs (§VI-A
// "test different PUE values") on the 15-minute Yahoo burst.
func PUESweep(seed int64, pues []float64) ([]SweepRow, error) {
	tbl, err := StandardBoundTable(seed)
	if err != nil {
		return nil, err
	}
	tr, err := YahooTrace(seed, 3.2, 15*time.Minute)
	if err != nil {
		return nil, err
	}
	stats := workload.Analyze(tr)
	return sweepCtx(context.Background(), campaign.Options{}, pues, func(pue float64) (SweepRow, error) {
		base := Scenario{Trace: tr, PUE: pue}
		g, err := Run(base)
		if err != nil {
			return SweepRow{}, err
		}
		p := base
		p.Strategy = Prediction(stats.AggregateDuration, tbl)
		pr, err := Run(p)
		if err != nil {
			return SweepRow{}, err
		}
		return SweepRow{X: pue, Greedy: g.Improvement(), Prediction: pr.Improvement()}, nil
	})
}

// AblationRow compares a scenario with and without one design element.
type AblationRow struct {
	// Name labels the workload.
	Name string
	// With and Without are average burst performances.
	With, Without float64
}

// NoTESAblation measures the §V claim that facilities without TES can still
// sprint, with shorter durations, on both experiment traces.
func NoTESAblation(seed int64) ([]AblationRow, error) {
	ms, err := MSTrace(seed)
	if err != nil {
		return nil, err
	}
	yahoo, err := YahooTrace(seed, 3.2, 15*time.Minute)
	if err != nil {
		return nil, err
	}
	traces := []struct {
		name string
		tr   *Series
	}{
		{"ms", ms},
		{"yahoo-3.2x15min", yahoo},
	}
	rows := make([]AblationRow, 0, len(traces))
	for _, tc := range traces {
		with, err := Run(Scenario{Trace: tc.tr})
		if err != nil {
			return nil, err
		}
		without, err := Run(Scenario{Trace: tc.tr, NoTES: true})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{Name: tc.name, With: with.Improvement(), Without: without.Improvement()})
	}
	return rows, nil
}

// ReserveRow is one point of the controller reserve-time ablation (E4).
type ReserveRow struct {
	// Reserve is the breaker reserve time-to-trip.
	Reserve time.Duration
	// Improvement is the MS-trace Greedy average burst performance.
	Improvement float64
	// Tripped reports whether any breaker tripped.
	Tripped bool
}

// ReserveSweep measures how the user-defined reserve time (§V-B's "1
// minute" parameter) trades performance against safety margin.
func ReserveSweep(seed int64, reserves []time.Duration) ([]ReserveRow, error) {
	tr, err := MSTrace(seed)
	if err != nil {
		return nil, err
	}
	return sweepCtx(context.Background(), campaign.Options{}, reserves, func(res time.Duration) (ReserveRow, error) {
		r, err := Run(Scenario{Trace: tr, Reserve: res})
		if err != nil {
			return ReserveRow{}, err
		}
		return ReserveRow{Reserve: res, Improvement: r.Improvement(), Tripped: r.TrippedAt >= 0}, nil
	})
}

// SkewRow is one point of the heterogeneous-load experiment (E5).
type SkewRow struct {
	// Skew is the demand imbalance: group weights run linearly from
	// (1-Skew) to (1+Skew) across the PDUs.
	Skew float64
	// Improvement is the average burst performance.
	Improvement float64
	// Tripped reports whether any breaker tripped (it must not: the §V-B
	// parent/child coordination holds under imbalance).
	Tripped bool
}

// SkewWeights builds per-PDU demand weights running linearly from (1-skew)
// to (1+skew); skew 0 is uniform.
func SkewWeights(groups int, skew float64) []float64 {
	w := make([]float64, groups)
	for i := range w {
		x := 0.0
		if groups > 1 {
			x = float64(i)/float64(groups-1)*2 - 1
		}
		w[i] = 1 + skew*x
	}
	return w
}

// SkewExperiment (E5) measures sprinting under heterogeneous per-PDU demand
// on the 15-minute Yahoo burst: hot PDU groups hit their breaker bounds
// earlier, so performance degrades with imbalance, but the coordination
// must never trip a breaker.
func SkewExperiment(seed int64, skews []float64) ([]SkewRow, error) {
	tr, err := YahooTrace(seed, 3.2, 15*time.Minute)
	if err != nil {
		return nil, err
	}
	const groups = 10
	return sweepCtx(context.Background(), campaign.Options{}, skews, func(s float64) (SkewRow, error) {
		r, err := Run(Scenario{
			Trace:   tr,
			Weights: SkewWeights(groups, s),
		})
		if err != nil {
			return SkewRow{}, err
		}
		return SkewRow{Skew: s, Improvement: r.Improvement(), Tripped: r.TrippedAt >= 0}, nil
	})
}

// EmergencyRow compares responses to one scenario (E6).
type EmergencyRow struct {
	// System labels the responder.
	System string
	// BurstPerformance is the average performance over the over-capacity
	// ticks of a 15-minute 3.2x burst (no supply trouble).
	BurstPerformance float64
	// DipMinPerformance is the worst delivered performance during a
	// 30%-deep, 5-minute utility supply dip at busy-hour demand.
	DipMinPerformance float64
	// Tripped reports a breaker trip in either scenario.
	Tripped bool
}

// EmergencyComparison (E6) contrasts Data Center Sprinting with the DVFS
// power-capping baseline of §II on the two situations the paper
// distinguishes: a workload burst (capping cannot serve it) and a utility
// supply emergency (sprinting's stored energy rides through what capping
// must throttle for).
func EmergencyComparison(seed int64) ([]EmergencyRow, error) {
	burst, err := YahooTrace(seed, 3.2, 15*time.Minute)
	if err != nil {
		return nil, err
	}
	busy, err := YahooTrace(seed, 1, 0) // busy-hour demand, no burst
	if err != nil {
		return nil, err
	}
	dip, err := workload.SupplyDip(busy.Duration(), busy.Step, 10*time.Minute, 5*time.Minute, 0.55)
	if err != nil {
		return nil, err
	}

	rows := make([]EmergencyRow, 0, 3)

	// Data Center Sprinting.
	dcsBurst, err := Run(Scenario{Trace: burst})
	if err != nil {
		return nil, err
	}
	dcsDip, err := Run(Scenario{Trace: busy, Supply: dip})
	if err != nil {
		return nil, err
	}
	rows = append(rows, EmergencyRow{
		System:            "dcs",
		BurstPerformance:  dcsBurst.Improvement(),
		DipMinPerformance: dipMinRatio(dcsDip.Telemetry.Achieved, dcsDip.Telemetry.Required),
		Tripped:           dcsBurst.TrippedAt >= 0 || dcsDip.TrippedAt >= 0,
	})

	// Data Center Sprinting without TES.
	noTESBurst, err := Run(Scenario{Trace: burst, NoTES: true})
	if err != nil {
		return nil, err
	}
	noTESDip, err := Run(Scenario{Trace: busy, Supply: dip, NoTES: true})
	if err != nil {
		return nil, err
	}
	rows = append(rows, EmergencyRow{
		System:            "dcs-no-tes",
		BurstPerformance:  noTESBurst.Improvement(),
		DipMinPerformance: dipMinRatio(noTESDip.Telemetry.Achieved, noTESDip.Telemetry.Required),
		Tripped:           noTESBurst.TrippedAt >= 0 || noTESDip.TrippedAt >= 0,
	})

	// DVFS power capping.
	capBurst, err := RunCapping(Scenario{Trace: burst})
	if err != nil {
		return nil, err
	}
	capDip, err := RunCapping(Scenario{Trace: busy, Supply: dip})
	if err != nil {
		return nil, err
	}
	rows = append(rows, EmergencyRow{
		System:            "dvfs-capping",
		BurstPerformance:  capBurst.AvgBurstPerformance,
		DipMinPerformance: dipMinRatio(capDip.Achieved, capDip.Required),
	})
	return rows, nil
}

// dipMinRatio returns the worst achieved/required ratio — 1.0 means the
// demand was fully served throughout.
func dipMinRatio(achieved, required *Series) float64 {
	min := 1.0
	for i := range achieved.Samples {
		req := required.Samples[i]
		if req <= 0 {
			continue
		}
		if r := achieved.Samples[i] / req; r < min {
			min = r
		}
	}
	return min
}

// RunCapping drives the DVFS power-capping baseline; see sim.RunCapping.
func RunCapping(sc Scenario) (*CappingResult, error) { return sim.RunCapping(sc) }

// CappingResult is the DVFS baseline outcome; see sim.CappingResult.
type CappingResult = sim.CappingResult

// AdaptiveRow is one burst duration of the online-prediction experiment
// (E7).
type AdaptiveRow struct {
	// Duration is the injected burst duration.
	Duration time.Duration
	// Greedy, Adaptive, Prediction, Oracle are average burst
	// performances. Prediction gets the exact duration; Adaptive uses
	// only online evidence (the doubling rule).
	Greedy, Adaptive, Prediction, Oracle float64
}

// AdaptiveComparison (E7) measures the paper's future-work direction — an
// online burst predictor needing no offline forecast — against Greedy, the
// exactly-informed Prediction, and the Oracle, across burst durations on
// the 3.2x Yahoo burst.
func AdaptiveComparison(seed int64, durations []time.Duration) ([]AdaptiveRow, error) {
	tbl, err := StandardBoundTable(seed)
	if err != nil {
		return nil, err
	}
	return sweepCtx(context.Background(), campaign.Options{}, durations, func(d time.Duration) (AdaptiveRow, error) {
		tr, err := YahooTrace(seed, 3.2, d)
		if err != nil {
			return AdaptiveRow{}, err
		}
		stats := workload.Analyze(tr)
		greedy, err := Run(Scenario{Trace: tr})
		if err != nil {
			return AdaptiveRow{}, err
		}
		adaptive, err := Run(Scenario{Trace: tr, Strategy: Adaptive(tbl)})
		if err != nil {
			return AdaptiveRow{}, err
		}
		pred, err := Run(Scenario{Trace: tr, Strategy: Prediction(stats.AggregateDuration, tbl)})
		if err != nil {
			return AdaptiveRow{}, err
		}
		oracle, err := OracleSearch(context.Background(), CampaignOptions{}, Scenario{Trace: tr})
		if err != nil {
			return AdaptiveRow{}, err
		}
		return AdaptiveRow{
			Duration:   d,
			Greedy:     greedy.Improvement(),
			Adaptive:   adaptive.Improvement(),
			Prediction: pred.Improvement(),
			Oracle:     oracle.Result.Improvement(),
		}, nil
	})
}

// OutageRow compares facilities riding a near-total utility outage (E8).
type OutageRow struct {
	// System labels the configuration.
	System string
	// MinPerformance is the worst achieved/required ratio during the run.
	MinPerformance float64
	// GenEnergy is the energy the generator supplied (0 without one).
	GenEnergy units.Joules
	// Survived reports the facility stayed up (no trip, no brownout).
	Survived bool
}

// OutageExperiment (E8) injects a 10-minute deep utility curtailment
// (supply falls to 15% of the rating — just enough for the TES-assisted
// cooling) at busy-hour demand. With a generator the UPS and TES bridge the
// 45-second crank and the facility rides through; without one the batteries
// run dry before the grid returns and the facility browns out.
func OutageExperiment(seed int64) ([]OutageRow, error) {
	busy, err := YahooTrace(seed, 1, 0)
	if err != nil {
		return nil, err
	}
	outage, err := workload.SupplyDip(busy.Duration(), busy.Step, 10*time.Minute, 10*time.Minute, 0.15)
	if err != nil {
		return nil, err
	}

	rows := make([]OutageRow, 0, 2)
	for _, withGen := range []bool{true, false} {
		r, err := Run(Scenario{Trace: busy, Supply: outage, Generator: withGen})
		if err != nil {
			return nil, err
		}
		row := OutageRow{
			MinPerformance: dipMinRatio(r.Telemetry.Achieved, r.Telemetry.Required),
			GenEnergy:      units.Joules(r.Telemetry.GenPower.Integral()),
			Survived:       r.TrippedAt < 0,
		}
		if withGen {
			row.System = "dcs+genset"
		} else {
			row.System = "dcs-only"
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// EnduranceRow is one battery-lifetime verdict of the endurance experiment
// (E9): a chemistry, a sprint frequency, and whether the usage pattern
// stays lifetime-neutral (§III-B / §IV-B).
type EnduranceRow struct {
	// Chemistry names the battery chemistry.
	Chemistry string
	// BurstsPerMonth is the sprint frequency evaluated.
	BurstsPerMonth int
	// DepthOfDischarge is the per-burst battery depth observed in the
	// simulated sprint.
	DepthOfDischarge float64
	// LifetimeNeutral reports whether the pattern keeps the battery's
	// required service life.
	LifetimeNeutral bool
	// ProjectedYears is the service life the pattern implies.
	ProjectedYears float64
}

// EnduranceReport (E9) measures the battery depth of discharge of one
// 15-minute 3.2x sprint and projects the lifetime impact of repeating it at
// several monthly frequencies, for lead-acid and LFP chemistries — the
// §IV-B argument that occasional sprinting costs no battery money.
func EnduranceReport(seed int64) ([]EnduranceRow, error) {
	tr, err := YahooTrace(seed, 3.2, 15*time.Minute)
	if err != nil {
		return nil, err
	}
	r, err := Run(Scenario{Trace: tr})
	if err != nil {
		return nil, err
	}
	dod := 1 - r.Telemetry.UPSSoC.Min()
	if dod <= 0 {
		return nil, fmt.Errorf("dcsprint: sprint did not touch the batteries")
	}
	rows := make([]EnduranceRow, 0, 8)
	for _, chem := range []ups.Chemistry{ups.LFP(), ups.LeadAcid()} {
		for _, k := range []int{3, 10, 30, 200} {
			rows = append(rows, EnduranceRow{
				Chemistry:        chem.Name,
				BurstsPerMonth:   k,
				DepthOfDischarge: dod,
				LifetimeNeutral:  chem.LifetimeNeutral(float64(k), dod),
				ProjectedYears:   chem.ProjectedYears(float64(k), dod),
			})
		}
	}
	return rows, nil
}

// ChipPCMRow is one point of the chip-thermal ablation (E10).
type ChipPCMRow struct {
	// PCMMinutes sizes the per-chip phase-change package (0 = unlimited).
	PCMMinutes float64
	// Improvement is the average burst performance.
	Improvement float64
	// SprintSustained is the time delivered performance exceeded 1.
	SprintSustained time.Duration
}

// ChipPCMSweep (E10) ablates the §IV prerequisite: Data Center Sprinting
// ends when chip-level sprinting can no longer be sustained. Small PCM
// packages bound the sprint before the facility-level stores do.
func ChipPCMSweep(seed int64, pcmMinutes []float64) ([]ChipPCMRow, error) {
	tr, err := YahooTrace(seed, 3.2, 15*time.Minute)
	if err != nil {
		return nil, err
	}
	return sweepCtx(context.Background(), campaign.Options{}, pcmMinutes, func(m float64) (ChipPCMRow, error) {
		r, err := Run(Scenario{Trace: tr, ChipPCMMinutes: m})
		if err != nil {
			return ChipPCMRow{}, err
		}
		return ChipPCMRow{PCMMinutes: m, Improvement: r.Improvement(), SprintSustained: r.SprintSustained}, nil
	})
}

// DayReport summarizes a full day of operation on the Fig-1 workload (E11):
// the long-horizon integration check that sprint events, recharge cycles
// and battery wear all compose.
type DayReport struct {
	// BurstEvents is the number of distinct sprint events in the day.
	BurstEvents int
	// Improvement is the average burst performance across them.
	Improvement float64
	// Tripped reports any breaker trip (must be false).
	Tripped bool
	// Overheated reports the room reaching its threshold (must be false).
	Overheated bool
	// MinUPSSoC is the deepest fleet battery state of charge of the day.
	MinUPSSoC float64
	// EndUPSSoC is the fleet state of charge at day's end (recharged).
	EndUPSSoC float64
	// MonthlyDamage is the LFP life fraction a month of such days costs.
	MonthlyDamage float64
	// LifetimeNeutral reports whether that wear keeps the 8-year life.
	LifetimeNeutral bool
}

// DayExperiment (E11) normalizes the Fig-1 day trace to a 4 GB/s capacity
// (the §V-D example), resamples it to the 1-second engine resolution, runs
// the controller through the full 24 hours, and projects a month of such
// days onto the LFP battery wear law.
func DayExperiment(seed int64) (*DayReport, error) {
	day, err := DayTrace(seed)
	if err != nil {
		return nil, err
	}
	day = day.Scale(1.0 / 4.0) // §V-D: capacity 4 GB/s
	demand, err := day.Resample(time.Second)
	if err != nil {
		return nil, err
	}
	r, err := Run(Scenario{Name: "fig1-day", Trace: demand})
	if err != nil {
		return nil, err
	}
	rep := &DayReport{
		Improvement: r.Improvement(),
		Tripped:     r.TrippedAt >= 0,
		Overheated:  r.Telemetry.RoomTemp.Max() >= 40,
		MinUPSSoC:   r.Telemetry.UPSSoC.Min(),
		EndUPSSoC:   r.Telemetry.UPSSoC.Samples[r.Telemetry.UPSSoC.Len()-1],
	}
	for _, e := range r.Events {
		if e.Kind == core.EventBurstStarted {
			rep.BurstEvents++
		}
	}
	// Feed the day's battery trajectory through the wear ledger and
	// project 30 such days per month.
	chem := ups.LFP()
	ledger, err := ups.NewWearLedger(chem)
	if err != nil {
		return nil, err
	}
	for _, soc := range r.Telemetry.UPSSoC.Samples {
		ledger.Observe(soc)
	}
	ledger.Close()
	rep.MonthlyDamage = ledger.Damage() * 30
	rep.LifetimeNeutral = rep.MonthlyDamage <= chem.MonthlyDamageBudget()+1e-12
	return rep, nil
}

// BurstinessRow is one point of the burstiness sweep (E12).
type BurstinessRow struct {
	// Bias is the b-model split parameter.
	Bias float64
	// Burstiness is the trace's p99/mean index.
	Burstiness float64
	// Episodes is the number of over-capacity excursions.
	Episodes int
	// Improvement is the average burst performance under Greedy.
	Improvement float64
	// Tripped reports any breaker trip (must be false).
	Tripped bool
}

// BurstinessSweep (E12) drives the controller with b-model self-similar
// traffic of increasing burstiness: the burstier the workload, the more
// over-capacity excursions sprinting absorbs, and safety must hold at every
// bias.
func BurstinessSweep(seed int64, biases []float64) ([]BurstinessRow, error) {
	return sweepCtx(context.Background(), campaign.Options{}, biases, func(bias float64) (BurstinessRow, error) {
		tr, err := SelfSimilarTrace(seed, SelfSimilarConfig{
			Bias:   bias,
			Levels: 11, // 2048 s ~ a 34-minute window
			Mean:   0.7,
			Step:   time.Second,
		})
		if err != nil {
			return BurstinessRow{}, err
		}
		r, err := Run(Scenario{Trace: tr})
		if err != nil {
			return BurstinessRow{}, err
		}
		return BurstinessRow{
			Bias:        bias,
			Burstiness:  BurstinessIndex(tr),
			Episodes:    len(Episodes(tr)),
			Improvement: r.Improvement(),
			Tripped:     r.TrippedAt >= 0,
		}, nil
	})
}

// MonteCarloStats summarizes an improvement distribution across seeds (E13).
type MonteCarloStats struct {
	// Seeds is the sample count.
	Seeds int
	// Mean, Min, Max and StdDev describe the improvement factors.
	Mean, Min, Max, StdDev float64
	// Trips counts runs with a breaker trip (must be zero).
	Trips int
}

// MonteCarlo (E13) re-runs the 15-minute 3.2x Yahoo burst across many
// trace seeds: the paper evaluates single traces; this measures how stable
// the headline improvement is against workload realization noise. The seeds
// fan out on the campaign engine per opts; per-seed results are bit-identical
// at any worker count. (Formerly MonteCarloContext; the context-free wrapper
// was removed — pass context.Background() and CampaignOptions{} for the old
// behavior.)
func MonteCarlo(ctx context.Context, opts CampaignOptions, seeds int) (*MonteCarloStats, error) {
	if seeds <= 0 {
		return nil, fmt.Errorf("dcsprint: non-positive seed count %d", seeds)
	}
	ids := make([]int64, seeds)
	for i := range ids {
		ids[i] = int64(i + 1)
	}
	// A tripped run reports NaN; the tallies fold from vals, which sweepCtx
	// returns in seed order, so they are bit-identical at any worker count.
	vals, err := sweepCtx(ctx, opts, ids, func(seed int64) (float64, error) {
		tr, err := YahooTrace(seed, 3.2, 15*time.Minute)
		if err != nil {
			return 0, err
		}
		r, err := Run(Scenario{Trace: tr})
		if err != nil {
			return 0, err
		}
		if r.TrippedAt >= 0 {
			return math.NaN(), nil
		}
		return r.Improvement(), nil
	})
	if err != nil {
		return nil, err
	}
	st := &MonteCarloStats{Seeds: seeds, Min: math.Inf(1), Max: math.Inf(-1)}
	var n, sum, sumSq float64
	for _, v := range vals {
		if math.IsNaN(v) {
			st.Trips++
			continue
		}
		n++
		sum += v
		sumSq += v * v
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
	if n > 0 {
		st.Mean = sum / n
		variance := sumSq/n - st.Mean*st.Mean
		if variance > 0 {
			st.StdDev = math.Sqrt(variance)
		}
	}
	return st, nil
}

// StorePlan is a provisioning recommendation for a target burst (E14).
type StorePlan struct {
	// BatteryAh is the smallest per-server battery (in 0.05 Ah steps)
	// that fully serves the target burst with the default TES.
	BatteryAh float64
	// TESMinutes is the smallest tank (in 1-minute steps) that still
	// fully serves the burst once the battery is fixed.
	TESMinutes float64
	// Improvement is the achieved average burst performance of the final
	// configuration.
	Improvement float64
	// Target is the average burst performance of fully serving the burst.
	Target float64
}

// PlanStores (E14) answers the operator's inverse question: how much
// battery and thermal storage does a facility need to fully serve a burst
// of the given degree and duration? It searches the smallest per-server
// battery (with the paper's default 12-minute TES) whose run serves the
// whole burst, then trims the TES down to the smallest tank that still
// does. "Fully serve" means the average burst performance reaches 99.5% of
// the burst's mean demand.
func PlanStores(seed int64, degree float64, duration time.Duration) (*StorePlan, error) {
	tr, err := YahooTrace(seed, degree, duration)
	if err != nil {
		return nil, err
	}
	target := workload.Analyze(tr).MeanBurstDemand
	if target <= 1 {
		return nil, fmt.Errorf("dcsprint: degree %v produces no burst", degree)
	}
	serves := func(batteryAh, tesMinutes float64) (float64, error) {
		r, err := Run(Scenario{Trace: tr, BatteryAh: batteryAh, TESMinutes: tesMinutes})
		if err != nil {
			return 0, err
		}
		return r.Improvement(), nil
	}
	const (
		step     = 0.05
		maxAh    = 4.0
		tolerate = 0.995
	)
	plan := &StorePlan{Target: target, TESMinutes: 12}
	// Smallest battery with the default tank, by bisection on a 0.05 Ah
	// grid (serving is monotone in stored energy).
	lo, hi := 1, int(maxAh/step)
	for lo < hi {
		mid := (lo + hi) / 2
		imp, err := serves(float64(mid)*step, 12)
		if err != nil {
			return nil, err
		}
		if imp >= tolerate*target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	plan.BatteryAh = float64(lo) * step
	imp, err := serves(plan.BatteryAh, 12)
	if err != nil {
		return nil, err
	}
	if imp < tolerate*target {
		// No store size fixes this: the burst is bounded by a ceiling
		// storage cannot move — the TES absorption rate (sustained
		// cooling), a breaker rating, or the chip itself.
		return nil, fmt.Errorf("dcsprint: burst %vx/%v is not fully servable by adding storage (best %.3fx of %.3fx): bounded by cooling or power ceilings",
			degree, duration, imp, target)
	}
	// Smallest tank with that battery, same bisection on a 1-minute grid.
	tlo, thi := 1, 30
	for tlo < thi {
		mid := (tlo + thi) / 2
		imp, err := serves(plan.BatteryAh, float64(mid))
		if err != nil {
			return nil, err
		}
		if imp >= tolerate*target {
			thi = mid
		} else {
			tlo = mid + 1
		}
	}
	plan.TESMinutes = float64(tlo)
	plan.Improvement, err = serves(plan.BatteryAh, plan.TESMinutes)
	if err != nil {
		return nil, err
	}
	if plan.Improvement < tolerate*target {
		// The minimal tank bisection can land above 30 minutes' grid; fall
		// back to the default.
		plan.TESMinutes = 12
		plan.Improvement = imp
	}
	return plan, nil
}

// ChaosRow aggregates one strategy's behaviour across seeded random fault
// campaigns (E15). Every campaign carries at least one capacity-reducing
// battery fault, so degraded excess is expected below the healthy baseline;
// the hard invariant is the zero in the Trips and Overheats columns.
type ChaosRow struct {
	// Strategy labels the sprinting strategy under test.
	Strategy string
	// Campaigns is the number of random fault campaigns replayed.
	Campaigns int
	// Trips counts campaigns that ended in a breaker trip (must be 0).
	Trips int
	// Overheats counts campaigns whose room reached the 40 C threshold
	// (must be 0).
	Overheats int
	// Aborts is the total number of supervision-forced sprint aborts.
	Aborts int
	// Deaths counts campaigns whose run ended with the facility down.
	Deaths int
	// HealthyExcess is the excess work served (degree-seconds above
	// capacity) by the supervised run with an empty fault schedule.
	HealthyExcess float64
	// MeanDegradedExcess and WorstDegradedExcess summarize excess work
	// served across the fault campaigns.
	MeanDegradedExcess  float64
	WorstDegradedExcess float64
	// MinTripMargin is the smallest 1 - MaxBreakerStress any campaign
	// left on any breaker's thermal accumulator.
	MinTripMargin float64
}

// chaosCampaigns is the default campaign count per strategy for E15.
const chaosCampaigns = 50

// Chaos (E15) replays seeded random fault campaigns — battery
// failures, TES valve/leak faults, chiller degradation, grid curtailments,
// breaker derates and sensor faults — against all five strategies on a
// 2.5x / 12 min Yahoo burst, and reports how gracefully each degrades. The
// healthy baseline runs with a non-nil empty schedule so it exercises the
// same supervised telemetry path as the faulted runs. campaigns <= 0 means
// the default of 50. The fault campaigns fan out on the campaign engine per
// opts. (Formerly ChaosContext; the context-free wrapper was removed — pass
// context.Background() and CampaignOptions{} for the old behavior.)
func Chaos(ctx context.Context, opts CampaignOptions, seed int64, campaigns int) ([]ChaosRow, error) {
	if campaigns <= 0 {
		campaigns = chaosCampaigns
	}
	tr, err := YahooTrace(seed, 2.5, 12*time.Minute)
	if err != nil {
		return nil, err
	}
	stats := workload.Analyze(tr)
	tbl, err := standardBoundTable(ctx, seed)
	if err != nil {
		return nil, err
	}
	// The default facility: sim.DefaultServers at 200 servers per PDU.
	groups := sim.DefaultServers / 200
	strategies := []struct {
		name string
		st   Strategy
	}{
		{"greedy", Greedy()},
		{"fixed-bound", FixedBound(2.0)},
		{"prediction", Prediction(stats.AggregateDuration, tbl)},
		{"heuristic", Heuristic(2.5, 0.10)},
		{"adaptive", Adaptive(tbl)},
	}
	rows := make([]ChaosRow, 0, len(strategies))
	for _, s := range strategies {
		healthy, err := Run(Scenario{
			Name:     "chaos-healthy-" + s.name,
			Trace:    tr,
			Strategy: s.st,
			Faults:   &faults.Schedule{},
		})
		if err != nil {
			return nil, err
		}
		idx := make([]int, campaigns)
		for i := range idx {
			idx[i] = i
		}
		results, err := sweepCtx(ctx, opts, idx, func(i int) (*Result, error) {
			return Run(Scenario{
				Name:     fmt.Sprintf("chaos-%s-%d", s.name, i),
				Trace:    tr,
				Strategy: s.st,
				Faults:   faults.Random(seed*1000+int64(i), tr.Duration(), groups),
			})
		})
		if err != nil {
			return nil, err
		}
		row := ChaosRow{
			Strategy:            s.name,
			Campaigns:           campaigns,
			HealthyExcess:       healthy.ExcessServed,
			WorstDegradedExcess: math.Inf(1),
			MinTripMargin:       1 - healthy.MaxBreakerStress,
		}
		// Fold the tallies from the campaign-ordered results, so the excess
		// sum adds in the same order at any worker count.
		var excess float64
		for _, r := range results {
			if r.TrippedAt >= 0 {
				row.Trips++
			}
			if r.Telemetry.RoomTemp.Max() >= 40 {
				row.Overheats++
			}
			if r.Dead {
				row.Deaths++
			}
			row.Aborts += r.Aborts
			excess += r.ExcessServed
			if r.ExcessServed < row.WorstDegradedExcess {
				row.WorstDegradedExcess = r.ExcessServed
			}
			if m := 1 - r.MaxBreakerStress; m < row.MinTripMargin {
				row.MinTripMargin = m
			}
		}
		row.MeanDegradedExcess = excess / float64(campaigns)
		rows = append(rows, row)
	}
	return rows, nil
}

// TestbedPolicies returns the three testbed policies for iteration.
func TestbedPolicies() []TestbedPolicy {
	return []TestbedPolicy{testbed.PolicyOurs, testbed.PolicyCBFirst, testbed.PolicyCBOnly}
}

// fleetE16Spec is the E16 workload: eight heterogeneous DCs where DC 0 is
// hot (tight headroom, two-minute tank, admission cap 1) and draws ~60% of
// the bursts. Independent sprinting piles those bursts onto the hot DC;
// coordinated routing spreads one burst per DC across the fleet.
var fleetE16Spec = fleet.Spec{
	DCs:         8,
	Replicas:    1,
	HotDC:       0,
	AdmitCap:    1,
	Ticks:       600,
	Bursts:      8,
	BurstDegree: 1.8,
	BurstTicks:  150,
}

// FleetModeResult aggregates one routing policy's fleet runs across seeds
// (E16): totals over every seed's schedule, extremes over every seed's run.
type FleetModeResult struct {
	// Bursts, Survived, Rejected and Spilled total across seeds.
	Bursts   int
	Survived int
	Rejected int
	Spilled  int
	// WorstBreakerStress is the max over seeds of each run's fleet-wide
	// breaker-stress peak; WorstThermalMarginC the min over seeds of each
	// run's thermal-margin floor.
	WorstBreakerStress  float64
	WorstThermalMarginC float64
	// MeanServedRatio averages the per-seed mean delivered/required ratio.
	MeanServedRatio float64
}

// FleetComparison is the E16 outcome: the same burst schedules run under
// coordinated fleet routing and under independent per-DC sprinting.
type FleetComparison struct {
	// Seeds is the number of independent schedules compared.
	Seeds int
	// Coordinated and Independent summarize each policy across all seeds.
	Coordinated FleetModeResult
	Independent FleetModeResult
	// Dominates reports strict dominance: coordination survived strictly
	// more bursts at no-worse fleet extremes (breaker stress no higher,
	// thermal-margin floor no lower).
	Dominates bool
}

// FleetContext (E16) asks whether cross-DC sprint coordination strictly
// beats the paper's per-facility sprinting when bursts skew toward one
// overloaded site. Each seed draws a fresh schedule over the E16 fleet and
// runs it twice — once routed, once independent — and the aggregate
// compares survival and fleet-wide stress extremes. The seeds fan out on
// the campaign engine per opts; results are bit-identical at any worker
// count because the moments accumulate from the seed-ordered sweep output.
func FleetContext(ctx context.Context, opts CampaignOptions, seeds int) (*FleetComparison, error) {
	if seeds <= 0 {
		return nil, fmt.Errorf("dcsprint: non-positive seed count %d", seeds)
	}
	ids := make([]int64, seeds)
	for i := range ids {
		ids[i] = int64(i + 1)
	}
	type pair struct {
		coord, indep *fleet.Result
	}
	vals, err := sweepCtx(ctx, opts, ids, func(seed int64) (pair, error) {
		var p pair
		for _, coordinated := range []bool{true, false} {
			spec := fleetE16Spec
			spec.Seed = seed
			fl, err := fleet.New(spec)
			if err != nil {
				return p, err
			}
			r, err := fl.Run(ctx, fleet.RunOptions{Coordinated: coordinated})
			if err != nil {
				return p, err
			}
			if coordinated {
				p.coord = r
			} else {
				p.indep = r
			}
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	cmp := &FleetComparison{Seeds: seeds}
	cmp.Coordinated.WorstThermalMarginC = math.Inf(1)
	cmp.Independent.WorstThermalMarginC = math.Inf(1)
	fold := func(m *FleetModeResult, r *fleet.Result) {
		m.Bursts += r.Bursts
		m.Survived += r.Survived
		m.Rejected += r.Rejected
		m.Spilled += r.Spilled
		if r.WorstBreakerStress > m.WorstBreakerStress {
			m.WorstBreakerStress = r.WorstBreakerStress
		}
		if r.WorstThermalMarginC < m.WorstThermalMarginC {
			m.WorstThermalMarginC = r.WorstThermalMarginC
		}
		m.MeanServedRatio += r.MeanServedRatio / float64(seeds)
	}
	for _, p := range vals {
		fold(&cmp.Coordinated, p.coord)
		fold(&cmp.Independent, p.indep)
	}
	cmp.Dominates = cmp.Coordinated.Survived > cmp.Independent.Survived &&
		cmp.Coordinated.WorstBreakerStress <= cmp.Independent.WorstBreakerStress &&
		cmp.Coordinated.WorstThermalMarginC >= cmp.Independent.WorstThermalMarginC
	return cmp, nil
}

// Compile-time checks that the facade strategies satisfy the interface.
var (
	_ Strategy = core.Greedy{}
	_ Strategy = core.FixedBound{}
	_ Strategy = core.Prediction{}
	_ Strategy = core.Heuristic{}
)
