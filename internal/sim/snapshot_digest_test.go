package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dcsprint/internal/trace"
	"dcsprint/internal/workload"
)

// snapshotTicks are the ticks TestSnapshotDigestsGolden fingerprints a
// snapshot at: the fresh engine, idle, mid-burst and the end of the run.
var snapshotTicks = []int{0, 300, 900, 1800}

// outsideChanges are the changes the "outside" row makes to single PDU
// groups, each before the tick it names: a derated breaker, a faded and a
// failed battery, and a breaker reset, so the groups split and some merge
// again. The faults row of digestRows cannot be snapshotted (its injector
// is not checkpointable), so this row makes its changes from outside.
var outsideChanges = map[int]func(e *Engine){
	200: func(e *Engine) {
		b, _ := e.p.tree.Own(3)
		b.Derate(0.97)
	},
	400: func(e *Engine) {
		_, u := e.p.tree.Own(6)
		u.Fade(0.8)
	},
	700: func(e *Engine) {
		_, u := e.p.tree.Own(8)
		u.Fail()
	},
	1000: func(e *Engine) {
		b, _ := e.p.tree.Own(1)
		b.Reset()
	},
}

// snapshotRows are the runs TestSnapshotDigestsGolden pins, on seed 1 of the
// reference duty cycle: the reference session, the weights row, whose
// groups draw unequal power, and the outside row. changes, when set, is
// applied before the ticks it names.
var snapshotRows = []struct {
	name    string
	build   func(tr *trace.Series) Scenario
	changes map[int]func(e *Engine)
}{
	{name: "default", build: func(tr *trace.Series) Scenario { return Scenario{Trace: tr} }},
	{name: "weights", build: func(tr *trace.Series) Scenario { return digestRows[1].build(1, tr) }},
	{name: "outside", build: func(tr *trace.Series) Scenario { return Scenario{Trace: tr} }, changes: outsideChanges},
}

// TestSnapshotDigestsGolden pins the bytes of Engine.Snapshot: one SHA-256
// line per row and snapshotTicks tick in snapshot_digests.golden, so a
// change to how the plant holds its state cannot change what a snapshot
// writes. Each row is also restored from its tick-900 snapshot and run to
// the end, which must reproduce the uninterrupted run: for the default and
// weights rows, the seed-1 line of run_digests.golden. -update-digests
// rewrites the golden.
func TestSnapshotDigestsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("three reference runs")
	}
	runDigests, err := os.ReadFile(filepath.Join("testdata", "run_digests.golden"))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.SyntheticYahoo(1, 3.2, 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, row := range snapshotRows {
		sc := row.build(tr)
		eng, err := New(sc)
		if err != nil {
			t.Fatal(err)
		}
		var mid []byte
		for i := 0; i <= tr.Len(); i++ {
			for _, at := range snapshotTicks {
				if i != at {
					continue
				}
				snap, err := eng.Snapshot()
				if err != nil {
					t.Fatalf("%s tick %d: %v", row.name, i, err)
				}
				sum := sha256.Sum256(snap)
				fmt.Fprintf(&got, "%s/seed01/tick%04d %s\n", row.name, i, hex.EncodeToString(sum[:]))
				if i == 900 {
					mid = snap
				}
			}
			if i < tr.Len() {
				stepWithChanges(t, eng, row.changes, i)
			}
		}
		want, err := eng.Finish()
		if err != nil {
			t.Fatal(err)
		}
		wantDigest := resultDigest(want)
		if row.changes == nil {
			line := fmt.Sprintf("%s/seed01 %s\n", row.name, wantDigest)
			if !strings.Contains(string(runDigests), line) {
				t.Fatalf("%s: the uninterrupted run's digest %s is not run_digests.golden's", row.name, wantDigest)
			}
		}
		restored, err := Restore(sc, mid)
		if err != nil {
			t.Fatalf("%s: restore at tick 900: %v", row.name, err)
		}
		for i := restored.Tick(); i < tr.Len(); i++ {
			stepWithChanges(t, restored, row.changes, i)
		}
		res, err := restored.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if d := resultDigest(res); d != wantDigest {
			t.Fatalf("%s: restored at tick 900, the run digests to %s, want %s", row.name, d, wantDigest)
		}
	}
	golden := filepath.Join("testdata", "snapshot_digests.golden")
	if *updateDigests {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read %s (run with -update-digests to create it): %v", golden, err)
	}
	if got.String() != string(want) {
		t.Fatalf("snapshot digests differ from %s:\n%s\nwant:\n%s", golden, got.String(), want)
	}
}

// stepWithChanges makes the change changes names for tick i, if any, and
// steps the engine through tick i.
func stepWithChanges(t *testing.T, e *Engine, changes map[int]func(e *Engine), i int) {
	t.Helper()
	if change := changes[i]; change != nil {
		change(e)
	}
	if _, err := e.Step(e.Scenario().Trace.Samples[i]); err != nil {
		t.Fatalf("tick %d: %v", i, err)
	}
}
