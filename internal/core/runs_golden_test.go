package core

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

	"dcsprint/internal/faults"
	"dcsprint/internal/power"
	"dcsprint/internal/workload"
)

var updateRunSplits = flag.Bool("update-run-splits", false, "rewrite testdata/run_split_digests.golden from the current code")

// runSplitRows are scenarios in which neighbouring PDU groups stop being
// identical part-way through a run, and some become identical again: the
// groups' weights differ, a breaker is derated or a battery fails or fades
// mid-burst, or a sensor plane is attached. Each runs the reference duty
// cycle on a 10-group facility; mutate, when set, runs before the tick it
// names. The oneRun row is the exception: its DC breaker's spare runs short
// during recharge, and the shares that spare is split into must keep its
// identical groups one lockstep run. copies bounds the states a run may
// copy to a member of a lockstep run that comes to start a run of its own
// (power.Tree.Materialized): one or two per group a mutation changes alone
// from inside a run, and none where the groups only drift apart.
var runSplitRows = []struct {
	name   string
	opts   facilityOpts
	sensed bool
	oneRun bool
	copies int
	mutate func(f *facility, tick, burst int)
}{
	{name: "weights-halves", opts: facilityOpts{weights: []float64{0.8, 0.8, 0.8, 0.8, 0.8, 1.2, 1.2, 1.2, 1.2, 1.2}}},
	{name: "dc-spare", opts: facilityOpts{dcHeadroom: 0.04}, oneRun: true},
	{name: "derate-mid-burst", copies: 2, mutate: func(f *facility, tick, burst int) {
		if tick == burst+60 {
			b, _ := f.tree.Own(3)
			b.Derate(0.9)
		}
	}},
	{name: "fail-fade-mid-burst", copies: 4, mutate: func(f *facility, tick, burst int) {
		switch tick {
		case burst + 45:
			_, u := f.tree.Own(4)
			u.Fail()
		case burst + 90:
			_, u := f.tree.Own(7)
			u.Fade(0.5)
		}
	}},
	{name: "sensors", sensed: true, mutate: func(f *facility, tick, burst int) {
		if tick == burst+45 {
			_, u := f.tree.Own(2)
			u.Fade(0.6)
		}
	}},
	{name: "uncontrolled-weights", opts: facilityOpts{uncontrolled: true, weights: []float64{1, 1, 1, 1, 1, 0.9, 0.9, 1.1, 1.1, 1}}},
}

// runSplitDigest fingerprints a controller run bit for bit: every tick's
// result, the energy split, the event log, and every breaker's and
// battery's final state.
func runSplitDigest(f *facility, ticks []TickResult) string {
	h := sha256.New()
	for _, r := range ticks {
		hashFloats(h, r.Demand, r.Delivered, r.Degree, r.Bound, float64(r.ITPower), float64(r.CoolingPower),
			float64(r.DCLoad), float64(r.PDULoad), float64(r.UPSPower), float64(r.GenPower),
			float64(r.TESHeatRate), float64(r.RoomTemp))
		hashInts(h, int64(r.ActiveCores), int64(r.Phase), boolInt(r.Tripped), boolInt(r.Dead))
	}
	s := f.ctl.Split()
	hashFloats(h, float64(s.UPS), float64(s.TES), float64(s.CBOverload))
	for _, e := range f.ctl.Events() {
		hashInts(h, int64(e.Time), int64(e.Kind), int64(e.From), int64(e.To))
		h.Write([]byte(e.Detail))
		h.Write([]byte{0})
	}
	for g := 0; g < f.tree.Groups(); g++ {
		pb, pu := f.tree.Breaker(g), f.tree.UPS(g)
		b := pb.State()
		hashFloats(h, float64(b.Rated), b.Acc, float64(b.Load))
		hashInts(h, boolInt(b.Tripped))
		u := pu.State()
		hashFloats(h, float64(u.Capacity), float64(u.MaxDischarge), float64(u.MaxRecharge), float64(u.Stored), float64(u.Discharged))
		hashInts(h, boolInt(u.Failed))
	}
	b := f.tree.DCBreaker.State()
	hashFloats(h, float64(b.Rated), b.Acc, float64(b.Load))
	return hex.EncodeToString(h.Sum(nil))
}

func hashFloats(h hash.Hash, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

func hashInts(h hash.Hash, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

// copies returns the states the tree has copied to materialize a member of
// a run.
func copies(tree *power.Tree) int {
	_, _, n := tree.Work()
	return n
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestRunSplitDigestsGolden pins, bit for bit, controller runs in which the
// PDU groups split apart and merge again (see runSplitRows): one SHA-256
// line per row and seed. Each row also checks that its scenario does what
// it names, so the golden cannot silently stop covering it, and every
// recharge plan of every tick keeps rechargeCheck's rules, and the run
// copies no more states to run members than the row allows.
func TestRunSplitDigestsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("30 reference runs")
	}
	rc := checkRecharges(t)
	var b strings.Builder
	for _, row := range runSplitRows {
		for seed := int64(1); seed <= 5; seed++ {
			tr, err := workload.SyntheticYahoo(seed, 3.2, 15*time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			burst := -1
			for i, d := range tr.Samples {
				if d > 1 {
					burst = i
					break
				}
			}
			if burst < 0 {
				t.Fatalf("seed %d: no burst", seed)
			}
			opts := row.opts
			opts.servers = 2000
			f := newFacility(t, opts)
			if row.sensed {
				f.ctl.AttachSensors(faults.NewSensorBus(f.tree, f.room, f.tank))
			}
			ticks := make([]TickResult, 0, tr.Len())
			*rc = rechargeCheck{}
			split := false
			for i, d := range tr.Samples {
				if row.mutate != nil {
					row.mutate(f, i, burst)
				}
				ticks = append(ticks, f.ctl.Tick(d, tr.Step))
				if runs := f.tree.Runs(); runs[0] != len(runs) {
					split = true
				}
			}
			if rc.err != nil {
				t.Fatalf("%s seed %d: %v", row.name, seed, rc.err)
			}
			switch {
			case row.oneRun && (split || rc.scaled == 0):
				t.Fatalf("%s seed %d: %d of %d recharge plans scaled, groups split %v; want the DC spare to run short and the groups to stay one run",
					row.name, seed, rc.scaled, rc.plans, split)
			case !row.oneRun && !split:
				t.Fatalf("%s seed %d: no tick split the groups", row.name, seed)
			case copies(f.tree) > row.copies:
				t.Fatalf("%s seed %d: %d states copied to run members, want at most %d",
					row.name, seed, copies(f.tree), row.copies)
			}
			fmt.Fprintf(&b, "%s/seed%02d %s\n", row.name, seed, runSplitDigest(f, ticks))
		}
	}
	got := b.String()
	golden := filepath.Join("testdata", "run_split_digests.golden")
	if *updateRunSplits {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatalf("update digests: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read %s (run with -update-run-splits to create it): %v", golden, err)
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
	t.Fatalf("run digests differ from %s; a change meant to keep results must leave it unchanged", golden)
}
