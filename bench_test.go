package dcsprint

// One benchmark per paper table/figure (see DESIGN.md's per-experiment
// index): each bench regenerates its artifact end to end and reports the
// headline quantity via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// both times the harness and prints the reproduced numbers.

import (
	"context"
	"testing"
	"time"
)

const benchSeed = 1

func BenchmarkFig1TraceSynthesis(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		day := mustTrace(DayTrace(benchSeed))
		peak = day.Max()
	}
	b.ReportMetric(peak, "peak_gbps")
}

func BenchmarkFig2TripCurve(b *testing.B) {
	var oneMin float64
	for i := 0; i < b.N; i++ {
		pts := Fig2TripCurve([]float64{5, 10, 20, 30, 40, 60, 100, 200, 300, 400, 500})
		for _, p := range pts {
			if p.OverloadPercent == 60 {
				oneMin = p.TripTime.Seconds()
			}
		}
	}
	b.ReportMetric(oneMin, "trip_s_at_60pct")
}

func BenchmarkFig4PhaseTimeline(b *testing.B) {
	var t3 float64
	for i := 0; i < b.N; i++ {
		_, w, err := Fig4(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		t3 = w.Phase3Start.Seconds()
	}
	b.ReportMetric(t3, "phase3_start_s")
}

func BenchmarkFig5Economics(b *testing.B) {
	degrees := []float64{1, 1.5, 2, 2.5, 3, 3.5, 4}
	var profit float64
	for i := 0; i < b.N; i++ {
		a, _ := Fig5(degrees)
		last := a[len(a)-1]
		profit = last.R100 - last.Cost
	}
	b.ReportMetric(profit, "n4_r100_profit_usd")
}

func BenchmarkFig7Traces(b *testing.B) {
	var burst float64
	for i := 0; i < b.N; i++ {
		ms := mustTrace(MSTrace(benchSeed))
		ya := mustTrace(YahooTrace(benchSeed, 3.2, 15*time.Minute))
		burst = AnalyzeTrace(ms).AggregateDuration.Minutes() + AnalyzeTrace(ya).PeakDemand
	}
	b.ReportMetric(burst, "ms_burst_min_plus_ya_peak")
}

func BenchmarkFig8Uncontrolled(b *testing.B) {
	var tripAt, improvement float64
	for i := 0; i < b.N; i++ {
		d, err := Fig8(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		tripAt = d.UncontrolledTrip.Seconds()
		improvement = d.Controlled.Improvement()
	}
	b.ReportMetric(tripAt, "uncontrolled_trip_s")
	b.ReportMetric(improvement, "dcs_improvement_x")
}

func BenchmarkFig9Strategies(b *testing.B) {
	var zeroErrPrediction float64
	for i := 0; i < b.N; i++ {
		rows, err := Fig9(benchSeed, []float64{-60, 0, 60})
		if err != nil {
			b.Fatal(err)
		}
		zeroErrPrediction = rows[1].Prediction
	}
	b.ReportMetric(zeroErrPrediction, "prediction_x_at_0err")
}

func BenchmarkFig10BurstSweep(b *testing.B) {
	var greedyGap float64
	for i := 0; i < b.N; i++ {
		rows, err := Fig10(benchSeed, 15*time.Minute, []float64{2.6, 3.0, 3.4})
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		greedyGap = last.Oracle - last.Greedy
	}
	b.ReportMetric(greedyGap, "oracle_minus_greedy_x")
}

func BenchmarkFig11Testbed(b *testing.B) {
	reserves := []time.Duration{time.Second, 30 * time.Second, time.Minute, 3 * time.Minute}
	var best float64
	for i := 0; i < b.N; i++ {
		d, err := Fig11(7, reserves)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range d.Sweep {
			if s := p.Ours.Seconds(); s > best {
				best = s
			}
		}
	}
	b.ReportMetric(best, "best_sustained_s")
}

func BenchmarkHeadroomSweep(b *testing.B) {
	var zero float64
	for i := 0; i < b.N; i++ {
		rows, err := HeadroomSweep(benchSeed, []float64{0, 0.10, 0.20})
		if err != nil {
			b.Fatal(err)
		}
		zero = rows[0].Greedy
	}
	b.ReportMetric(zero, "greedy_x_at_0_headroom")
}

func BenchmarkPUESweep(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		rows, err := PUESweep(benchSeed, []float64{1.2, 1.53, 2.0})
		if err != nil {
			b.Fatal(err)
		}
		spread = rows[len(rows)-1].Greedy - rows[0].Greedy
	}
	b.ReportMetric(spread, "greedy_x_spread")
}

func BenchmarkNoTESAblation(b *testing.B) {
	var loss float64
	for i := 0; i < b.N; i++ {
		rows, err := NoTESAblation(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		loss = rows[0].With - rows[0].Without
	}
	b.ReportMetric(loss, "tes_contribution_x")
}

func BenchmarkReserveSweep(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		rows, err := ReserveSweep(benchSeed, []time.Duration{10 * time.Second, time.Minute, 5 * time.Minute})
		if err != nil {
			b.Fatal(err)
		}
		spread = rows[0].Improvement - rows[len(rows)-1].Improvement
	}
	b.ReportMetric(spread, "aggressive_minus_safe_x")
}

// Substrate micro-benchmarks: the per-tick cost of the simulation core,
// which bounds how large a facility and how long a trace the harness can
// sweep.

func BenchmarkSimulationRunMS(b *testing.B) {
	tr := mustTrace(MSTrace(benchSeed))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Scenario{Trace: tr}); err != nil {
			b.Fatal(err)
		}
	}
	ticks := float64(tr.Len())
	b.ReportMetric(ticks*float64(b.N)/b.Elapsed().Seconds(), "ticks/s")
}

func BenchmarkSimulationRunPaperScale(b *testing.B) {
	// Paper-scale facility: 180,000 servers in 900 PDU groups.
	tr := mustTrace(YahooTrace(benchSeed, 3.2, 15*time.Minute))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Scenario{Trace: tr, Servers: 180000}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOracleSearch(b *testing.B) {
	tr := mustTrace(YahooTrace(benchSeed, 3.0, 5*time.Minute))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OracleSearch(context.Background(), CampaignOptions{}, Scenario{Trace: tr}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSkewSweep(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := SkewExperiment(benchSeed, []float64{0, 0.4, 0.8})
		if err != nil {
			b.Fatal(err)
		}
		worst = rows[len(rows)-1].Improvement
	}
	b.ReportMetric(worst, "improvement_x_at_skew_0.8")
}

func BenchmarkEmergencyComparison(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		rows, err := EmergencyComparison(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		byName := map[string]EmergencyRow{}
		for _, r := range rows {
			byName[r.System] = r
		}
		gap = byName["dcs"].DipMinPerformance - byName["dvfs-capping"].DipMinPerformance
	}
	b.ReportMetric(gap, "dcs_minus_capping_dip_x")
}

func BenchmarkAdaptiveComparison(b *testing.B) {
	var adaptive float64
	for i := 0; i < b.N; i++ {
		rows, err := AdaptiveComparison(benchSeed, []time.Duration{15 * time.Minute})
		if err != nil {
			b.Fatal(err)
		}
		adaptive = rows[0].Adaptive
	}
	b.ReportMetric(adaptive, "adaptive_x_15min")
}

func BenchmarkOutageExperiment(b *testing.B) {
	var genMJ float64
	for i := 0; i < b.N; i++ {
		rows, err := OutageExperiment(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.System == "dcs+genset" {
				genMJ = float64(r.GenEnergy) / 1e6
			}
		}
	}
	b.ReportMetric(genMJ, "gen_energy_MJ")
}

func BenchmarkEnduranceReport(b *testing.B) {
	var years float64
	for i := 0; i < b.N; i++ {
		rows, err := EnduranceReport(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Chemistry == "LFP" && r.BurstsPerMonth == 10 {
				years = r.ProjectedYears
			}
		}
	}
	b.ReportMetric(years, "lfp_years_at_10_bursts")
}

func BenchmarkChipPCMSweep(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		rows, err := ChipPCMSweep(benchSeed, []float64{2, 0})
		if err != nil {
			b.Fatal(err)
		}
		gap = rows[1].Improvement - rows[0].Improvement
	}
	b.ReportMetric(gap, "unlimited_minus_2min_x")
}

func BenchmarkDayExperiment(b *testing.B) {
	var bursts float64
	for i := 0; i < b.N; i++ {
		rep, err := DayExperiment(3)
		if err != nil {
			b.Fatal(err)
		}
		bursts = float64(rep.BurstEvents)
	}
	b.ReportMetric(bursts, "burst_events_per_day")
}

func BenchmarkBurstinessSweep(b *testing.B) {
	var top float64
	for i := 0; i < b.N; i++ {
		rows, err := BurstinessSweep(benchSeed, []float64{0.6, 0.7})
		if err != nil {
			b.Fatal(err)
		}
		top = rows[len(rows)-1].Improvement
	}
	b.ReportMetric(top, "improvement_x_at_bias_0.7")
}

func BenchmarkMonteCarlo(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		st, err := MonteCarlo(context.Background(), CampaignOptions{}, 8)
		if err != nil {
			b.Fatal(err)
		}
		mean = st.Mean
	}
	b.ReportMetric(mean, "mean_improvement_x")
}

func BenchmarkPlanStores(b *testing.B) {
	var ah float64
	for i := 0; i < b.N; i++ {
		p, err := PlanStores(benchSeed, 2.0, 10*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		ah = p.BatteryAh
	}
	b.ReportMetric(ah, "battery_ah_for_2x_10min")
}

// Campaign-engine scaling: the same 200-seed Monte Carlo grid, serial versus
// the full worker pool. Per-seed results are bit-identical by the campaign
// contract (TestMonteCarloParallelMatchesSerial pins it); the ratio of these
// two benches is the wall-clock speedup BENCH_PR5.json records.

func BenchmarkCampaignMonteCarloSerial(b *testing.B)   { benchCampaignMonteCarlo(b, 1) }
func BenchmarkCampaignMonteCarloParallel(b *testing.B) { benchCampaignMonteCarlo(b, 0) }

func benchCampaignMonteCarlo(b *testing.B, workers int) {
	var mean float64
	for i := 0; i < b.N; i++ {
		st, err := MonteCarlo(context.Background(), CampaignOptions{Workers: workers}, 200)
		if err != nil {
			b.Fatal(err)
		}
		if st.Trips != 0 {
			b.Fatalf("campaign tripped %d times", st.Trips)
		}
		mean = st.Mean
	}
	b.ReportMetric(mean, "mean_improvement_x")
}
