package sim

import (
	"math"
	"reflect"
	"testing"
	"time"

	"dcsprint/internal/units"
)

// samplePlant retains every PlantSample it receives.
type samplePlant struct {
	samples []PlantSample
}

func (p *samplePlant) RecordPlant(s PlantSample) { p.samples = append(p.samples, s) }

// TestPlantProbeMatchesTelemetry drives one engine with a recorder and
// checks the samples agree with the Result's telemetry series, with the
// tick's decision and with Engine.Plant, and carry sane headroom ledgers.
func TestPlantProbeMatchesTelemetry(t *testing.T) {
	eng, err := New(Scenario{Name: "probe"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rec := &samplePlant{}
	eng.AttachPlantRecorder(rec)
	const n, nanTick = 120, 90
	for i := 0; i < n; i++ {
		demand := 1.0
		if i >= 20 && i < 80 {
			demand = 3.0
		}
		if i == nanTick {
			demand = math.NaN() // a corrupt demand signal
		}
		dec, err := eng.Step(demand)
		if err != nil {
			t.Fatalf("Step %d: %v", i, err)
		}
		s := rec.samples[len(rec.samples)-1]
		if s.Demand != dec.Demand {
			t.Fatalf("sample %d: demand %v, decision served %v", i, s.Demand, dec.Demand)
		}
		if got := eng.Plant(); !reflect.DeepEqual(got, s) {
			t.Fatalf("tick %d: Plant() = %+v, recorder got %+v", i, got, s)
		}
	}
	if s := rec.samples[nanTick]; s.Demand != 1 {
		t.Fatalf("NaN-demand tick: sample demand %v, want the sanitised 1", s.Demand)
	}
	res, err := eng.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if len(rec.samples) != n {
		t.Fatalf("samples = %d, want %d", len(rec.samples), n)
	}
	sawSprint, sawStress := false, false
	for i, s := range rec.samples {
		if s.Tick != i || s.Now != time.Duration(i)*time.Second {
			t.Fatalf("sample %d: tick %d now %v", i, s.Tick, s.Now)
		}
		if got := res.Telemetry.Degree.Samples[i]; s.Degree != got {
			t.Fatalf("sample %d: degree %v, telemetry %v", i, s.Degree, got)
		}
		if got := res.Telemetry.DCLoad.Samples[i]; s.DCLoadW != got {
			t.Fatalf("sample %d: dc load %v, telemetry %v", i, s.DCLoadW, got)
		}
		if got := res.Telemetry.UPSSoC.Samples[i]; s.UPSSoC != got {
			t.Fatalf("sample %d: ups soc %v, telemetry %v", i, s.UPSSoC, got)
		}
		if got := res.Telemetry.RoomTemp.Samples[i]; s.RoomTempC != got {
			t.Fatalf("sample %d: room temp %v, telemetry %v", i, s.RoomTempC, got)
		}
		if s.Phase != res.Telemetry.Phase[i] {
			t.Fatalf("sample %d: phase %d, telemetry %d", i, s.Phase, res.Telemetry.Phase[i])
		}
		if s.BreakerStress < 0 || s.BreakerStress > 1 {
			t.Fatalf("sample %d: breaker stress %v outside [0,1]", i, s.BreakerStress)
		}
		if s.TESSoC < 0 || s.TESSoC > 1 {
			t.Fatalf("sample %d: TES SoC %v (default scenario has a tank)", i, s.TESSoC)
		}
		if s.ChipHeadroomJ != -1 {
			t.Fatalf("sample %d: chip headroom %v, want -1 without a chip model", i, s.ChipHeadroomJ)
		}
		if s.GridDrawW < 0 {
			t.Fatalf("sample %d: negative grid draw %v", i, s.GridDrawW)
		}
		if s.Degree > 1 {
			sawSprint = true
		}
		if s.BreakerStress > 0 {
			sawStress = true
		}
	}
	if !sawSprint {
		t.Fatal("burst never sprinted; probe saw no degree > 1")
	}
	if !sawStress {
		t.Fatal("probe never saw breaker stress accumulate")
	}
	// The recorded worst stress must equal the Result's.
	worst := 0.0
	for _, s := range rec.samples {
		if s.BreakerStress > worst {
			worst = s.BreakerStress
		}
	}
	if worst != res.MaxBreakerStress {
		t.Fatalf("probe worst stress %v != result %v", worst, res.MaxBreakerStress)
	}
}

// TestPlantProbeOptionalModels checks the -1 sentinels flip to live
// values when the scenario carries the optional plant models.
func TestPlantProbeOptionalModels(t *testing.T) {
	eng, err := New(Scenario{Name: "probe", NoTES: true, ChipPCMMinutes: 5})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if p := eng.Plant(); p.Tick != 0 || p.Degree != 0 || p.TESSoC != -1 || p.ChipHeadroomJ <= 0 || p.UPSSoC != 1 {
		t.Fatalf("Plant() before the first step = %+v, want zero tick fields and full ledgers", p)
	}
	rec := &samplePlant{}
	eng.AttachPlantRecorder(rec)
	if _, err := eng.Step(2.5); err != nil {
		t.Fatalf("Step: %v", err)
	}
	s := rec.samples[0]
	if s.TESSoC != -1 {
		t.Fatalf("TES SoC = %v, want -1 with NoTES", s.TESSoC)
	}
	if s.ChipHeadroomJ < 0 {
		t.Fatalf("chip headroom = %v, want >= 0 with a PCM budget", s.ChipHeadroomJ)
	}
}

// TestPlantProbeDetachedAllocs locks in the nil-gated contract: with no
// recorder attached a steady-state step performs zero allocations. It is
// BenchmarkEngineStep's allocation gate.
func TestPlantProbeDetachedAllocs(t *testing.T) {
	eng, err := New(Scenario{Name: "alloc"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Room for every step below, so none of them pays for history growth.
	eng.grow(256)
	for i := 0; i < 8; i++ {
		if _, err := eng.Step(1.5); err != nil {
			t.Fatalf("warmup: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := eng.Step(1.5); err != nil {
			t.Fatalf("Step: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("detached Step allocates %.1f/op, want 0", allocs)
	}
}

// TestPlantProbeIdenticalResults locks the observation-never-changes-
// outcomes rule: a probed run's Result is bit-identical to a bare one.
func TestPlantProbeIdenticalResults(t *testing.T) {
	run := func(attach bool) *Result {
		eng, err := New(Scenario{Name: "ident"})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if attach {
			eng.AttachPlantRecorder(&samplePlant{})
		}
		for i := 0; i < 200; i++ {
			d := 1.0 + float64(i%7)
			if _, err := eng.Step(d); err != nil {
				t.Fatalf("Step: %v", err)
			}
		}
		res, err := eng.Finish()
		if err != nil {
			t.Fatalf("Finish: %v", err)
		}
		return res
	}
	if !reflect.DeepEqual(run(false), run(true)) {
		t.Fatal("probed Result differs from bare Result")
	}
}

// TestScansAfterDeadTickReadEveryGroup kills an uncontrolled facility whose
// ten PDU groups step as one lockstep run, fades one battery in the middle
// of that run and steps once more. The dead tick steps no flow, so the
// lockstep runs the dying tick left must not stand for the faded group:
// the recorded state of charge and Plant's must equal a scan of every
// group.
func TestScansAfterDeadTickReadEveryGroup(t *testing.T) {
	eng, err := New(Scenario{Name: "dead", Uncontrolled: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tree := eng.p.tree
	if tree.Groups() != 10 {
		t.Fatalf("%d PDU groups, want 10", tree.Groups())
	}
	// Drain every battery alike, so the groups stay in lockstep and a fade
	// below full charge moves the aggregate state of charge.
	for g := 0; g < tree.Groups(); g++ {
		_, u := tree.Own(g)
		u.Discharge(u.MaxOutput(1), 1)
	}
	for !eng.Dead() {
		if eng.Tick() == 3600 {
			t.Fatal("the uncontrolled facility never died")
		}
		if _, err := eng.Step(3); err != nil {
			t.Fatalf("Step %d: %v", eng.Tick(), err)
		}
	}
	if runs := tree.Runs(); runs[0] != len(runs) {
		t.Fatalf("the dying tick left runs %v, want one run of every group", runs)
	}
	_, u := tree.Own(4)
	u.Fade(0.5)
	if _, err := eng.Step(3); err != nil {
		t.Fatalf("Step after death: %v", err)
	}
	var stored, total units.Joules
	for g := 0; g < tree.Groups(); g++ {
		u := tree.UPS(g)
		stored += u.Stored()
		total += u.TotalEnergy()
	}
	want := float64(stored) / float64(total)
	if got := eng.upsSoC[len(eng.upsSoC)-1]; got != want {
		t.Fatalf("recorded state of charge %v, want %v from every group", got, want)
	}
	if got := eng.Plant().UPSSoC; got != want {
		t.Fatalf("Plant state of charge %v, want %v from every group", got, want)
	}
}
