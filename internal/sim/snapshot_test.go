package sim

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"
	"time"

	"dcsprint/internal/chip"
	"dcsprint/internal/core"
	"dcsprint/internal/faults"
	"dcsprint/internal/tes"
	"dcsprint/internal/units"
	"dcsprint/internal/ups"
	"dcsprint/internal/workload"
)

// resealSnapshot recomputes the CRC trailer in place so a deliberately
// mutated snapshot reaches the field decoders instead of the checksum check.
func resealSnapshot(b []byte) {
	if len(b) < 4 {
		return
	}
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
}

// runToResult drives a fresh engine over the whole trace and returns the
// Result, capturing a snapshot after every interval ticks along the way.
func runWithSnapshots(t *testing.T, sc Scenario, interval int) (*Result, []snapAt) {
	t.Helper()
	eng, err := New(sc)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var snaps []snapAt
	for i, demand := range eng.Scenario().Trace.Samples {
		// Checkpoint on a fixed cadence, plus right after every phase
		// transition so even short phases (the CB-only window can last
		// well under the cadence) get a mid-phase checkpoint.
		entered := i >= 2 && eng.phase[i-1] != eng.phase[i-2]
		if i > 0 && (i%interval == 0 || entered) {
			b, err := eng.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot at tick %d: %v", i, err)
			}
			phase := 0
			if n := len(eng.phase); n > 0 {
				phase = eng.phase[n-1]
			}
			snaps = append(snaps, snapAt{tick: i, phase: phase, data: b, plant: eng.Plant()})
		}
		if _, err := eng.Step(demand); err != nil {
			t.Fatalf("Step %d: %v", i, err)
		}
	}
	res, err := eng.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return res, snaps
}

type snapAt struct {
	tick  int
	phase int
	data  []byte
	plant PlantSample // Engine.Plant at the snapshot tick
}

// TestSnapshotRestoreBitIdentical is the checkpoint property test: for every
// strategy, snapshots taken throughout a long Yahoo burst — including ticks
// inside sprinting phases 1, 2 and 3 — restore into engines that report the
// original's plant state at that tick and whose remaining run produces a
// Result bit-identical to the uninterrupted one.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	tbl := buildTestTable(t)
	tr := mustTrace(workload.SyntheticYahoo(7, 3.2, 15*time.Minute))
	st := workload.Analyze(tr)
	strategies := []struct {
		name  string
		strat core.Strategy
	}{
		{"greedy", nil},
		{"fixed", core.FixedBound{Bound: 2.5}},
		{"prediction", core.Prediction{PredictedDuration: st.AggregateDuration, Table: tbl}},
		{"heuristic", core.Heuristic{EstimatedAvgDegree: 2.5, Flexibility: 0.10}},
		{"adaptive", core.Adaptive{Table: tbl}},
	}
	const interval = 150 // ticks between checkpoints
	for _, tc := range strategies {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sc := Scenario{Name: tc.name, Trace: tr, Strategy: tc.strat}
			want, err := Run(sc)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			got, snaps := runWithSnapshots(t, sc, interval)
			if !reflect.DeepEqual(got, want) {
				t.Fatal("engine run with snapshots differs from plain Run")
			}
			phasesSeen := map[int]bool{}
			for _, s := range snaps {
				phasesSeen[s.phase] = true
				eng, err := Restore(sc, s.data)
				if err != nil {
					t.Fatalf("Restore at tick %d: %v", s.tick, err)
				}
				if got := eng.Plant(); !reflect.DeepEqual(got, s.plant) {
					t.Fatalf("restore at tick %d (phase %d): Plant() = %+v, original %+v", s.tick, s.phase, got, s.plant)
				}
				for i := s.tick; i < len(eng.Scenario().Trace.Samples); i++ {
					if _, err := eng.Step(eng.Scenario().Trace.Samples[i]); err != nil {
						t.Fatalf("resumed Step %d: %v", i, err)
					}
				}
				res, err := eng.Finish()
				if err != nil {
					t.Fatalf("resumed Finish: %v", err)
				}
				if !reflect.DeepEqual(res, want) {
					t.Fatalf("restore at tick %d (phase %d): resumed Result differs", s.tick, s.phase)
				}
			}
			// The burst must actually exercise the sprinting phases, or the
			// checkpoints only ever cover idle state.
			for _, ph := range []int{1, 2, 3} {
				if !phasesSeen[ph] {
					t.Errorf("no checkpoint taken during phase %d (saw %v)", ph, phasesSeen)
				}
			}
		})
	}
}

// TestSnapshotRestoreGeneratorChipSupervision covers the optional plant
// components: generator, chip PCM and the supervised sensor plane all make
// the round trip. Fault injection is refused, but an empty schedule attaches
// the sensor plane without any random draws, so supervision state is
// exercised via RestoreState directly.
func TestSnapshotRestoreOptionalComponents(t *testing.T) {
	tr := mustTrace(workload.SyntheticYahoo(7, 3.0, 10*time.Minute))
	sc := Scenario{
		Name:           "options",
		Trace:          tr,
		Generator:      true,
		ChipPCMMinutes: 6,
	}
	want, err := Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	got, snaps := runWithSnapshots(t, sc, 200)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("engine run with snapshots differs from plain Run")
	}
	for _, s := range snaps {
		eng, err := Restore(sc, s.data)
		if err != nil {
			t.Fatalf("Restore at tick %d: %v", s.tick, err)
		}
		for i := s.tick; i < tr.Len(); i++ {
			if _, err := eng.Step(tr.Samples[i]); err != nil {
				t.Fatalf("resumed Step %d: %v", i, err)
			}
		}
		res, err := eng.Finish()
		if err != nil {
			t.Fatalf("resumed Finish: %v", err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("restore at tick %d: resumed Result differs", s.tick)
		}
	}
}

func TestSnapshotRefusesFaultInjection(t *testing.T) {
	tr := mustTrace(workload.SyntheticYahoo(7, 2.0, 5*time.Minute))
	sc := Scenario{Trace: tr, Faults: &faults.Schedule{}}
	eng, err := New(sc)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := eng.Snapshot(); err != ErrSnapshotFaults {
		t.Fatalf("Snapshot with faults: err = %v, want ErrSnapshotFaults", err)
	}
	if _, err := Restore(sc, nil); err == nil {
		t.Fatal("Restore with a faulted scenario did not error")
	}
}

func TestSnapshotStreamingEngine(t *testing.T) {
	// A streaming engine (no trace) snapshots and restores too; the restored
	// engine continues the stream and the synthesized trace covers all ticks.
	eng, err := New(Scenario{Name: "stream"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 50; i++ {
		if _, err := eng.Step(1.5); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	resumed, err := Restore(Scenario{Name: "stream"}, snap)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for _, e := range []*Engine{eng, resumed} {
		for i := 0; i < 30; i++ {
			if _, err := e.Step(0.8); err != nil {
				t.Fatalf("Step: %v", err)
			}
		}
	}
	want, err := eng.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	got, err := resumed.Finish()
	if err != nil {
		t.Fatalf("resumed Finish: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("restored streaming engine diverged")
	}
	if got.Scenario.Trace.Len() != 80 {
		t.Fatalf("synthesized trace has %d samples, want 80", got.Scenario.Trace.Len())
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	tr := mustTrace(workload.SyntheticYahoo(7, 2.5, 5*time.Minute))
	sc := Scenario{Trace: tr}
	eng, err := New(sc)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 100; i++ {
		if _, err := eng.Step(tr.Samples[i]); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	cases := map[string][]byte{
		"empty":          nil,
		"short":          snap[:8],
		"bad magic":      append([]byte("NOTASNAP"), snap[8:]...),
		"truncated":      snap[:len(snap)/2],
		"flipped byte":   flipByte(snap, 33), // sign byte of the DC rating
		"flipped length": flipByte(snap, 22), // middle of the tick count
		"extra bytes":    append(append([]byte{}, snap...), 0, 1, 2),
	}
	for name, b := range cases {
		if _, err := Restore(sc, b); err == nil {
			t.Errorf("%s: Restore accepted a corrupt snapshot", name)
		}
	}
	// Mismatched scenario shapes are rejected even with a valid checksum.
	if _, err := Restore(Scenario{Trace: tr, NoTES: true}, snap); err == nil {
		t.Error("Restore accepted a snapshot with a mismatched plant shape")
	}
	if _, err := Restore(Scenario{Trace: tr, Servers: 4000}, snap); err == nil {
		t.Error("Restore accepted a snapshot with a mismatched PDU count")
	}
}

// flipByte returns a copy of b with one byte inverted and the CRC trailer
// recomputed, so corruption reaches the field decoders rather than being
// caught by the checksum.
func flipByte(b []byte, i int) []byte {
	out := append([]byte{}, b...)
	out[i] ^= 0xff
	resealSnapshot(out)
	return out
}

func TestSnapshotVersionRejected(t *testing.T) {
	tr := mustTrace(workload.SyntheticYahoo(7, 2.0, 5*time.Minute))
	sc := Scenario{Trace: tr}
	eng, err := New(sc)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	snap[8]++ // bump version
	resealSnapshot(snap)
	if _, err := Restore(sc, snap); err == nil {
		t.Fatal("Restore accepted an unknown snapshot version")
	}
}

func FuzzRestore(f *testing.F) {
	tr := mustTrace(workload.SyntheticYahoo(7, 2.0, 3*time.Minute))
	sc := Scenario{Trace: tr}
	eng, err := New(sc)
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	for i := 0; i < 30; i++ {
		if _, err := eng.Step(tr.Samples[i]); err != nil {
			f.Fatalf("Step: %v", err)
		}
	}
	snap, err := eng.Snapshot()
	if err != nil {
		f.Fatalf("Snapshot: %v", err)
	}
	f.Add(snap)
	f.Add(snap[:len(snap)/3])
	f.Add([]byte(snapMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Mutated snapshots must either restore cleanly or error — never
		// panic, never allocate absurd amounts. Reseal so mutations survive
		// the checksum and reach the decoders.
		if len(data) > len(snapMagic)+2+4 && bytes.HasPrefix(data, []byte(snapMagic)) {
			resealSnapshot(data)
		}
		eng, err := Restore(sc, data)
		if err != nil {
			return
		}
		// A structurally valid snapshot must yield a usable engine.
		if _, err := eng.Step(1.0); err != nil {
			t.Fatalf("restored engine rejected a step: %v", err)
		}
	})
}

// TestSetStateRejectsOverCapacity: a restored UPS, TES tank or chip PCM
// store holds at most its capacity. Every live component clamps to it, so
// only a corrupt or hand-made snapshot can exceed it, and a battery restored
// over capacity would plan a negative recharge that frees supply for the
// groups after it.
func TestSetStateRejectsOverCapacity(t *testing.T) {
	bat, err := ups.New(ups.DefaultServerBattery())
	if err != nil {
		t.Fatal(err)
	}
	tankCfg := tes.DefaultTank(1e6)
	tank, err := tes.New(tankCfg)
	if err != nil {
		t.Fatal(err)
	}
	chipCfg := chip.Default()
	pcm, err := chip.New(chipCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		capacity units.Joules
		set      func(units.Joules) error
	}{
		{"ups stored", bat.TotalEnergy(), func(j units.Joules) error {
			s := bat.State()
			s.Stored = j
			return bat.SetState(s)
		}},
		{"tes cold", tankCfg.HeatCapacity, func(j units.Joules) error {
			return tank.SetState(tes.State{Cold: j})
		}},
		{"chip melted", chipCfg.PCMCapacity, func(j units.Joules) error {
			return pcm.SetState(chip.State{Melted: j})
		}},
	} {
		if err := c.set(c.capacity); err != nil {
			t.Errorf("%s at capacity %v: %v", c.name, c.capacity, err)
		}
		if err := c.set(c.capacity + 0.5); err == nil {
			t.Errorf("%s 0.5 J over capacity %v accepted", c.name, c.capacity)
		}
	}
}
