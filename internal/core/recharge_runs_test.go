package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"dcsprint/internal/core"
	"dcsprint/internal/faults"
	"dcsprint/internal/sim"
	"dcsprint/internal/trace"
	"dcsprint/internal/workload"
)

// digestScenarios are the scenario rows of sim's TestRunDigestsGolden, each
// run on seeds 1-20 of the reference duty cycle. TestRechargeSharesDigestRuns
// checks them against that test's run_summaries.golden, so a row added to
// or changed in one copy only fails.
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

// readSummaries reads sim's run_summaries.golden: the runs in file order,
// and each run's summary fields by name.
func readSummaries(t *testing.T) (runs []string, fields map[string]map[string]string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "sim", "testdata", "run_summaries.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fields = map[string]map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Fields(line)
		if f[0] == "#" {
			names = f[2:]
			continue
		}
		if len(f)-1 != len(names) {
			t.Fatalf("run_summaries.golden: %d fields on %q, header names %d", len(f)-1, f[0], len(names))
		}
		runs = append(runs, f[0])
		fields[f[0]] = map[string]string{}
		for i, name := range names {
			fields[f[0]][name] = f[i+1]
		}
	}
	return runs, fields
}

// TestRechargeSharesDigestRuns checks every recharge plan of every tick of
// the 160 digest runs against the recharge rules (core.CheckRecharges),
// and requires some of them to scale the shares, so the runs cover the DC
// spare running short. The runs must be sim's digest runs: the same names
// in the same order as run_summaries.golden, and the same average burst
// performance, trip time and event count, written as that file writes
// them.
func TestRechargeSharesDigestRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("160 reference runs")
	}
	goldenRuns, golden := readSummaries(t)
	report := core.CheckRecharges(t)
	var runs []string
	for _, row := range digestScenarios {
		for seed := int64(1); seed <= 20; seed++ {
			tr, err := workload.SyntheticYahoo(seed, 3.2, 15*time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(row.build(seed, tr))
			if err != nil {
				t.Fatalf("%s seed %d: %v", row.name, seed, err)
			}
			if _, err := report(); err != nil {
				t.Fatalf("%s seed %d: %v", row.name, seed, err)
			}
			run := fmt.Sprintf("%s/seed%02d", row.name, seed)
			runs = append(runs, run)
			for name, got := range map[string]string{
				"avg_burst_perf": strconv.FormatFloat(res.AvgBurstPerformance, 'g', -1, 64),
				"tripped_at":     strconv.FormatInt(int64(res.TrippedAt), 10),
				"events":         strconv.Itoa(len(res.Events)),
			} {
				if want, ok := golden[run][name]; !ok || got != want {
					t.Fatalf("%s %s: %s, run_summaries.golden has %q; the matrix here and sim's digestRows differ", run, name, got, want)
				}
			}
		}
	}
	if strings.Join(runs, " ") != strings.Join(goldenRuns, " ") {
		t.Fatalf("runs %v, run_summaries.golden has %v; the matrix here and sim's digestRows differ", runs, goldenRuns)
	}
	if scaled, _ := report(); scaled == 0 {
		t.Fatal("no recharge plan scaled its shares; the DC spare never ran short")
	}
}
