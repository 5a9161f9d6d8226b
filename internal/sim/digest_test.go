package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"dcsprint/internal/core"
	"dcsprint/internal/faults"
	"dcsprint/internal/trace"
	"dcsprint/internal/workload"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/run_digests.golden, run_summaries.golden and snapshot_digests.golden from the current code")

// digestRows is the scenario matrix TestRunDigestsGolden pins: every variant
// runs on seeds 1-20 of the reference duty cycle.
var digestRows = []struct {
	name  string
	build func(seed int64, tr *trace.Series) Scenario
}{
	{"default", func(_ int64, tr *trace.Series) Scenario { return Scenario{Trace: tr} }},
	{"weights", func(_ int64, tr *trace.Series) Scenario {
		return Scenario{Trace: tr, Weights: []float64{0.6, 0.8, 1, 1.2, 1.4, 0.7, 0.9, 1.1, 1.3, 1}}
	}},
	{"fixed2.5", func(_ int64, tr *trace.Series) Scenario {
		return Scenario{Trace: tr, Strategy: core.FixedBound{Bound: 2.5}}
	}},
	{"heuristic", func(_ int64, tr *trace.Series) Scenario {
		return Scenario{Trace: tr, Strategy: core.Heuristic{EstimatedAvgDegree: 2.2, Flexibility: 0.1}}
	}},
	{"chippcm3", func(_ int64, tr *trace.Series) Scenario {
		return Scenario{Trace: tr, ChipPCMMinutes: 3}
	}},
	{"gen-tes6-bat0.3", func(_ int64, tr *trace.Series) Scenario {
		return Scenario{Trace: tr, Generator: true, TESMinutes: 6, BatteryAh: 0.3}
	}},
	{"notes-reserve30s", func(_ int64, tr *trace.Series) Scenario {
		return Scenario{Trace: tr, NoTES: true, Reserve: 30 * time.Second}
	}},
	{"faults", func(seed int64, tr *trace.Series) Scenario {
		return Scenario{Trace: tr, Faults: faults.Random(seed, tr.Duration(), DefaultServers/200)}
	}},
}

// resultDigest fingerprints what a run computed, bit for bit: every
// telemetry series, the phases, the energy split, the event log, the trip
// time and the worst breaker stress.
func resultDigest(r *Result) string {
	h := sha256.New()
	tm := r.Telemetry
	for _, s := range []*trace.Series{tm.Required, tm.Achieved, tm.Degree, tm.DCLoad, tm.PDULoad,
		tm.UPSPower, tm.GenPower, tm.UPSSoC, tm.CoolingPower, tm.TESRate, tm.RoomTemp} {
		digestFloats(h, s.Samples...)
	}
	for _, p := range tm.Phase {
		digestInt(h, int64(p))
	}
	digestFloats(h, float64(r.Split.UPS), float64(r.Split.TES), float64(r.Split.CBOverload))
	for _, e := range r.Events {
		digestInt(h, int64(e.Time))
		digestInt(h, int64(e.Kind))
		digestInt(h, int64(e.From))
		digestInt(h, int64(e.To))
		h.Write([]byte(e.Detail))
		h.Write([]byte{0})
	}
	digestInt(h, int64(r.TrippedAt))
	digestFloats(h, r.MaxBreakerStress)
	return hex.EncodeToString(h.Sum(nil))
}

func digestFloats(h hash.Hash, vs ...float64) {
	var b [8]byte
	digestInt(h, int64(len(vs)))
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

func digestInt(h hash.Hash, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

// summaryFields names the fields of a run summary in the order
// runSummary writes them; the discrete ones are counts and times.
var summaryFields = []struct {
	name     string
	discrete bool
}{
	{"avg_burst_perf", false}, {"sprint_sustained", true}, {"tripped_at", true}, {"aborts", true},
	{"max_breaker_stress", false}, {"excess_served", false},
	{"split_ups", false}, {"split_tes", false}, {"split_cb", false},
	{"events", true}, {"phase0_ticks", true}, {"phase1_ticks", true}, {"phase2_ticks", true}, {"phase3_ticks", true},
}

// runSummary lists what a run concluded, one space-separated value per
// summaryFields entry, floats written exactly. Where a digest says only
// that a run changed, its summary says what changed.
func runSummary(r *Result) string {
	var phases [4]int
	for _, p := range r.Telemetry.Phase {
		phases[p]++
	}
	vals := []string{
		fmtFloat(r.AvgBurstPerformance), strconv.FormatInt(int64(r.SprintSustained), 10),
		strconv.FormatInt(int64(r.TrippedAt), 10), strconv.Itoa(r.Aborts),
		fmtFloat(r.MaxBreakerStress), fmtFloat(r.ExcessServed),
		fmtFloat(float64(r.Split.UPS)), fmtFloat(float64(r.Split.TES)), fmtFloat(float64(r.Split.CBOverload)),
		strconv.Itoa(len(r.Events)),
	}
	for _, n := range phases {
		vals = append(vals, strconv.Itoa(n))
	}
	return strings.Join(vals, " ")
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// summaryReport explains how the summaries in got differ from want, both
// "run value value..." lines under a "# run name name..." header: old, new and relative change for each changed
// field, then the largest relative change per field and every run whose
// discrete fields changed.
func summaryReport(want, got string) string {
	old := map[string][]string{}
	for _, line := range strings.Split(want, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] != "#" {
			old[f[0]] = f[1:]
		}
	}
	var b strings.Builder
	largest := make([]float64, len(summaryFields))
	var discrete []string
	for _, line := range strings.Split(got, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] == "#" {
			continue
		}
		run, now := f[0], f[1:]
		was, ok := old[run]
		if !ok || len(was) != len(now) {
			fmt.Fprintf(&b, "%s: no comparable summary in the golden\n", run)
			continue
		}
		moved := false
		for i, field := range summaryFields {
			if was[i] == now[i] {
				continue
			}
			o, _ := strconv.ParseFloat(was[i], 64)
			n, _ := strconv.ParseFloat(now[i], 64)
			rel := math.Abs(n-o) / math.Abs(o)
			fmt.Fprintf(&b, "%s %s: %s -> %s (%+.3g relative)\n", run, field.name, was[i], now[i], (n-o)/math.Abs(o))
			largest[i] = max(largest[i], rel)
			moved = moved || field.discrete
		}
		if moved {
			discrete = append(discrete, run)
		}
	}
	b.WriteString("largest relative change per field:\n")
	for i, field := range summaryFields {
		fmt.Fprintf(&b, "  %s %.3g\n", field.name, largest[i])
	}
	fmt.Fprintf(&b, "runs whose discrete fields changed: %d %v\n", len(discrete), discrete)
	return b.String()
}

// TestRunDigestsGolden pins sim.Run bit for bit across the scenario matrix
// above: one SHA-256 line per row and seed in run_digests.golden, and the
// same run's summary (runSummary) in run_summaries.golden. A change that is
// meant to leave results unchanged (a refactor or a speed-up) must leave
// both files unchanged; one that is meant to change them regenerates them
// with
//
//	go test ./internal/sim -run TestRunDigestsGolden -update-digests
//
// and explains every changed line. On a mismatch the test reports, field
// by field, how each run's summary moved.
func TestRunDigestsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("160 reference runs")
	}
	var digests, summaries strings.Builder
	summaries.WriteString("# run")
	for _, field := range summaryFields {
		summaries.WriteString(" " + field.name)
	}
	summaries.WriteString("\n")
	for _, row := range digestRows {
		for seed := int64(1); seed <= 20; seed++ {
			tr, err := workload.SyntheticYahoo(seed, 3.2, 15*time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(row.build(seed, tr))
			if err != nil {
				t.Fatalf("%s seed %d: %v", row.name, seed, err)
			}
			fmt.Fprintf(&digests, "%s/seed%02d %s\n", row.name, seed, resultDigest(res))
			fmt.Fprintf(&summaries, "%s/seed%02d %s\n", row.name, seed, runSummary(res))
		}
	}
	digestGolden := filepath.Join("testdata", "run_digests.golden")
	summaryGolden := filepath.Join("testdata", "run_summaries.golden")
	if *updateDigests {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		for path, got := range map[string]string{digestGolden: digests.String(), summaryGolden: summaries.String()} {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatalf("update digests: %v", err)
			}
		}
	}
	want, err := os.ReadFile(digestGolden)
	if err != nil {
		t.Fatalf("read %s (run with -update-digests to create it): %v", digestGolden, err)
	}
	wantSummaries, err := os.ReadFile(summaryGolden)
	if err != nil {
		t.Fatalf("read %s (run with -update-digests to create it): %v", summaryGolden, err)
	}
	got := digests.String()
	if got == string(want) && summaries.String() == string(wantSummaries) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	changed := 0
	for i, line := range strings.Split(got, "\n") {
		if i >= len(wantLines) || line != wantLines[i] {
			changed++
		}
	}
	t.Errorf("%d run digests changed; how their summaries moved:\n%s", changed,
		summaryReport(string(wantSummaries), summaries.String()))
	t.Fatalf("run digests or summaries differ from %s and %s; if the change is intended, rerun with -update-digests and explain each changed line",
		digestGolden, summaryGolden)
}
