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
	"strings"
	"testing"
	"time"

	"dcsprint/internal/core"
	"dcsprint/internal/faults"
	"dcsprint/internal/trace"
	"dcsprint/internal/workload"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/run_digests.golden from the current code")

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

// TestRunDigestsGolden pins sim.Run bit for bit across the scenario matrix
// above: one SHA-256 line per row and seed. A change that is meant to leave
// results unchanged (a refactor or a speed-up) must leave this file
// unchanged; one that is meant to change them regenerates it with
//
//	go test ./internal/sim -run TestRunDigestsGolden -update-digests
//
// and explains every changed line.
func TestRunDigestsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("160 reference runs")
	}
	var b strings.Builder
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
			fmt.Fprintf(&b, "%s/seed%02d %s\n", row.name, seed, resultDigest(res))
		}
	}
	got := b.String()
	golden := filepath.Join("testdata", "run_digests.golden")
	if *updateDigests {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatalf("update digests: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read %s (run with -update-digests to create it): %v", golden, err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	for i, line := range strings.Split(got, "\n") {
		if i >= len(wantLines) || line != wantLines[i] {
			t.Errorf("digest changed: got %q", line)
		}
	}
	t.Fatalf("run digests differ from %s; if the change is intended, rerun with -update-digests and explain each changed line", golden)
}
