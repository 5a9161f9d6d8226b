package core_test

import (
	"testing"
	"time"

	"dcsprint/internal/core"
	"dcsprint/internal/faults"
	"dcsprint/internal/sim"
	"dcsprint/internal/trace"
	"dcsprint/internal/workload"
)

// digestScenarios are the scenario rows of sim's TestRunDigestsGolden, each
// run on seeds 1-20 of the reference duty cycle.
var digestScenarios = []struct {
	name  string
	build func(seed int64, tr *trace.Series) sim.Scenario
}{
	{"default", func(_ int64, tr *trace.Series) sim.Scenario { return sim.Scenario{Trace: tr} }},
	{"weights", func(_ int64, tr *trace.Series) sim.Scenario {
		return sim.Scenario{Trace: tr, Weights: []float64{0.6, 0.8, 1, 1.2, 1.4, 0.7, 0.9, 1.1, 1.3, 1}}
	}},
	{"fixed2.5", func(_ int64, tr *trace.Series) sim.Scenario {
		return sim.Scenario{Trace: tr, Strategy: core.FixedBound{Bound: 2.5}}
	}},
	{"heuristic", func(_ int64, tr *trace.Series) sim.Scenario {
		return sim.Scenario{Trace: tr, Strategy: core.Heuristic{EstimatedAvgDegree: 2.2, Flexibility: 0.1}}
	}},
	{"chippcm3", func(_ int64, tr *trace.Series) sim.Scenario {
		return sim.Scenario{Trace: tr, ChipPCMMinutes: 3}
	}},
	{"gen-tes6-bat0.3", func(_ int64, tr *trace.Series) sim.Scenario {
		return sim.Scenario{Trace: tr, Generator: true, TESMinutes: 6, BatteryAh: 0.3}
	}},
	{"notes-reserve30s", func(_ int64, tr *trace.Series) sim.Scenario {
		return sim.Scenario{Trace: tr, NoTES: true, Reserve: 30 * time.Second}
	}},
	{"faults", func(seed int64, tr *trace.Series) sim.Scenario {
		return sim.Scenario{Trace: tr, Faults: faults.Random(seed, tr.Duration(), sim.DefaultServers/200)}
	}},
}

// TestRechargeSharesDigestRuns checks every recharge plan of every tick of
// the 160 digest runs against the recharge rules (core.CheckRecharges),
// and requires some of them to scale the shares, so the runs cover the DC
// spare running short.
func TestRechargeSharesDigestRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("160 reference runs")
	}
	report := core.CheckRecharges(t)
	for _, row := range digestScenarios {
		for seed := int64(1); seed <= 20; seed++ {
			tr, err := workload.SyntheticYahoo(seed, 3.2, 15*time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sim.Run(row.build(seed, tr)); err != nil {
				t.Fatalf("%s seed %d: %v", row.name, seed, err)
			}
			if _, err := report(); err != nil {
				t.Fatalf("%s seed %d: %v", row.name, seed, err)
			}
		}
	}
	if scaled, _ := report(); scaled == 0 {
		t.Fatal("no recharge plan scaled its shares; the DC spare never ran short")
	}
}
