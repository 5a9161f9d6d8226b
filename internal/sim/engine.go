package sim

import (
	"errors"
	"fmt"
	"time"

	"dcsprint/internal/breaker"
	"dcsprint/internal/chip"
	"dcsprint/internal/cooling"
	"dcsprint/internal/core"
	"dcsprint/internal/faults"
	"dcsprint/internal/genset"
	"dcsprint/internal/power"
	"dcsprint/internal/telemetry"
	"dcsprint/internal/tes"
	"dcsprint/internal/trace"
	"dcsprint/internal/units"
	"dcsprint/internal/ups"
)

// ErrFinished is returned by Step and Finish once Finish has been called.
var ErrFinished = errors.New("sim: engine already finished")

// TickDecision is the controller's per-tick output a streaming caller
// receives from Step.
type TickDecision = core.TickResult

// DefaultStreamStep is the tick interval of a streaming engine built from a
// scenario without a trace — the paper's one-second control loop.
const DefaultStreamStep = time.Second

// plant bundles the physical facility one engine drives: the power tree, the
// room thermal model, the optional TES tank and chip package, the controller
// supervising them, and the optional fault injector replaying a campaign.
type plant struct {
	tree *power.Tree
	room *cooling.Room
	tank *tes.Tank
	ctl  *core.Controller
	inj  *faults.Injector
	gen  *genset.Generator
	chip *chip.Thermal
}

// buildPlant assembles the facility for a normalized scenario. It is the
// single construction path shared by the batch and streaming engines, so the
// two cannot drift. A faulted scenario's sensor bus and injector feed their
// probes into the process-wide registry.
func buildPlant(sc Scenario) (*plant, error) {
	if sc.Faults != nil {
		// A schedule built as a literal bypasses faults.NewSchedule's checks.
		for i, ev := range sc.Faults.Events {
			if err := ev.Validate(); err != nil {
				return nil, fmt.Errorf("sim: fault event %d: %w", i, err)
			}
		}
	}
	srv := sc.Server
	battery := ups.DefaultServerBattery()
	if sc.BatteryAh > 0 {
		battery.Capacity = units.AmpHours(sc.BatteryAh)
	}
	treeCfg := power.Config{
		Servers:          sc.Servers,
		ServersPerPDU:    sc.ServersPerPDU,
		ServerPeakNormal: srv.PeakNormalPower(),
		PDUHeadroom:      0.25,
		DCHeadroom:       sc.DCHeadroom,
		PUE:              sc.PUE,
		Curve:            breaker.Bulletin1489A(),
		Battery:          battery,
	}
	tree, err := power.New(treeCfg)
	if err != nil {
		return nil, err
	}
	coolCfg := cooling.Default(tree.PeakNormalIT())
	coolCfg.PUE = sc.PUE
	room, err := cooling.NewRoom(coolCfg)
	if err != nil {
		return nil, err
	}
	var tank *tes.Tank
	if !sc.NoTES {
		tankCfg := tes.DefaultTank(tree.PeakNormalIT())
		if sc.TESMinutes > 0 {
			tankCfg.HeatCapacity = units.ForDuration(tree.PeakNormalIT(),
				time.Duration(sc.TESMinutes*float64(time.Minute)).Seconds())
		}
		tank, err = tes.New(tankCfg)
		if err != nil {
			return nil, err
		}
	}
	ctl, err := core.New(core.Config{
		Server:       srv,
		Cooling:      coolCfg,
		Strategy:     sc.Strategy,
		Reserve:      sc.Reserve,
		Weights:      sc.Weights,
		Uncontrolled: sc.Uncontrolled,
	}, tree, room, tank)
	if err != nil {
		return nil, err
	}
	p := &plant{tree: tree, room: room, tank: tank, ctl: ctl}
	if sc.Generator {
		normalTotal := tree.PeakNormalIT() + coolCfg.NormalCoolingPower()
		gen, err := genset.New(genset.Default(normalTotal))
		if err != nil {
			return nil, err
		}
		ctl.AttachGenerator(gen)
		p.gen = gen
	}
	if sc.Faults != nil {
		bus := faults.NewSensorBus(tree, room, tank)
		ctl.AttachSensors(bus)
		inj := faults.NewInjector(sc.Faults, tree, tank, bus)
		inj.BindChiller(ctl)
		p.inj = inj
		bus.Instrument(telemetry.Default())
		inj.Instrument(telemetry.Default())
	}
	if sc.ChipPCMMinutes > 0 {
		sustainable := srv.PeakNormalPower() - srv.NonCPUPower
		excess := srv.PeakSprintPower() - srv.PeakNormalPower()
		th, err := chip.New(chip.Config{
			SustainablePower: sustainable,
			PCMCapacity:      units.ForDuration(excess, time.Duration(sc.ChipPCMMinutes*float64(time.Minute)).Seconds()),
			RefreezeRate:     excess / 4,
		})
		if err != nil {
			return nil, err
		}
		ctl.AttachChipThermal(th)
		p.chip = th
	}
	return p, nil
}

// PlantSample is one tick's physical-plant state: the headroom ledgers the
// paper's whole argument rests on — breaker thermal accumulators, stored
// UPS and TES energy, room and chip temperatures — alongside the power
// flows and the realized sprint degree. A PlantRecorder receives one per
// completed Step.
type PlantSample struct {
	// Tick is the completed tick index; Now its start time (Tick*step).
	Tick int
	Now  time.Duration
	// Demand, Delivered and Degree are the tick's normalized workload
	// numbers; Phase is 0 outside sprinting, then 1 (CB), 2 (UPS), 3 (TES).
	Demand, Delivered, Degree float64
	Phase                     int
	// Power flows, in watts.
	DCLoadW, PDULoadW, UPSPowerW, GenPowerW, CoolPowerW, TESRateW float64
	// GridDrawW is the DC breaker load net of on-site generation.
	GridDrawW float64
	// RoomTempC is the room temperature; ThermalMarginC how far below the
	// overheat threshold it sits (the paper's phase-3 budget).
	RoomTempC, ThermalMarginC float64
	// BreakerStress is the worst thermal-accumulator value across the DC
	// and PDU breakers this tick (1.0 trips).
	BreakerStress float64
	// UPSSoC is the fleet battery state of charge in [0, 1].
	UPSSoC float64
	// TESSoC is the thermal-storage state of charge in [0, 1], or -1
	// when the scenario has no TES tank.
	TESSoC float64
	// ChipHeadroomJ is the remaining chip PCM budget in joules, or -1
	// when the scenario has no chip thermal model.
	ChipHeadroomJ float64
}

// PlantRecorder receives one PlantSample per completed engine step. The
// callback runs on the stepping goroutine; implementations must be fast
// and must not call back into the engine.
type PlantRecorder interface {
	RecordPlant(PlantSample)
}

// Engine drives one scenario tick-at-a-time: the online form of Run, built
// for streaming control planes that observe demand one sample at a time.
// Construct with New, feed demand through Step, and call Finish for the
// Result. Engines are not safe for concurrent use; a serving layer must
// confine each engine to one goroutine.
type Engine struct {
	sc   Scenario
	p    *plant
	rec  PlantRecorder
	step time.Duration
	i    int

	// Breaker ratings captured at construction (fault injection can derate
	// the live breakers mid-run; Result echoes the nameplate values).
	dcRated, pduRated units.Watts

	// Per-tick telemetry accumulators, one value per completed Step.
	required, achieved, degree          []float64
	dcLoad, pduLoad, upsPower, genPower []float64
	upsSoC, coolPower, tesRate          []float64
	roomTemp                            []float64
	phase                               []int

	trippedAt       time.Duration
	sprintSustained time.Duration
	excessServed    float64
	maxStress       float64
	burstTicks      int
	burstAchieved   float64
	finished        bool
}

// New returns an engine for the scenario. A scenario with a trace runs at
// the trace's step and Result.Scenario echoes it unchanged; a scenario
// without a trace streams unbounded at DefaultStreamStep and the demand fed
// through Step becomes the echoed trace at Finish.
func New(sc Scenario) (*Engine, error) {
	step := DefaultStreamStep
	if sc.Trace != nil {
		if err := sc.normalize(); err != nil {
			return nil, err
		}
		step = sc.Trace.Step
	} else {
		sc.normalizeDefaults()
	}
	p, err := buildPlant(sc)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		sc:        sc,
		p:         p,
		step:      step,
		dcRated:   p.tree.DCBreaker.Rated,
		pduRated:  p.tree.Breaker(0).Rated,
		trippedAt: -1,
	}
	if n := e.traceLen(); n > 0 {
		e.grow(n)
	} else {
		// Streaming mode has no known length: start small, so a short
		// session pays for little history, and let growSeries double it.
		e.growSeries()
	}
	return e, nil
}

// streamPrealloc is the accumulator capacity (in ticks) a streaming engine
// starts with: about a minute of one-second telemetry, 6 KiB. Doubling
// from it, an 1,800-tick session ends at a capacity of 2,048 ticks.
const streamPrealloc = 64

// traceLen returns the scenario trace length, or 0 in streaming mode.
func (e *Engine) traceLen() int {
	if e.sc.Trace == nil {
		return 0
	}
	return e.sc.Trace.Len()
}

// grow pre-sizes the telemetry accumulators for n ticks.
func (e *Engine) grow(n int) {
	e.required = make([]float64, 0, n)
	e.achieved = make([]float64, 0, n)
	e.degree = make([]float64, 0, n)
	e.dcLoad = make([]float64, 0, n)
	e.pduLoad = make([]float64, 0, n)
	e.upsPower = make([]float64, 0, n)
	e.genPower = make([]float64, 0, n)
	e.upsSoC = make([]float64, 0, n)
	e.coolPower = make([]float64, 0, n)
	e.tesRate = make([]float64, 0, n)
	e.roomTemp = make([]float64, 0, n)
	e.phase = make([]int, 0, n)
}

// AttachPlantRecorder attaches (or, with nil, detaches) a plant-state
// probe. Exactly like journaling and tracing, the probe is nil-gated: a
// detached engine's Step does no extra work and no allocations. Attach
// before the first Step for a complete series; attaching mid-run simply
// starts sampling from the next tick.
func (e *Engine) AttachPlantRecorder(r PlantRecorder) { e.rec = r }

// Scenario returns the engine's normalized scenario.
func (e *Engine) Scenario() Scenario { return e.sc }

// Interval returns the engine's tick duration.
func (e *Engine) Interval() time.Duration { return e.step }

// Tick returns the number of completed steps.
func (e *Engine) Tick() int { return e.i }

// Now returns the simulation time at the start of the next tick.
func (e *Engine) Now() time.Duration { return time.Duration(e.i) * e.step }

// Dead reports whether the facility is down (trip or overheat). A dead
// engine keeps accepting steps — the controller serves nothing — so a
// streaming session can observe the failure and decide when to finish.
func (e *Engine) Dead() bool { return e.p.ctl.Dead() }

// Step advances the simulation one tick under the given normalized demand
// and returns the controller's decision for the tick.
func (e *Engine) Step(demand float64) (TickDecision, error) {
	var dec TickDecision
	err := e.stepInto(demand, &dec)
	return dec, err
}

// stepInto is Step writing the decision through a pointer: a TickDecision is
// large enough that returning it by value costs a measurable fraction of a
// batched step.
func (e *Engine) stepInto(demand float64, dec *TickDecision) error {
	if e.finished {
		*dec = TickDecision{}
		return ErrFinished
	}
	sc, step, i := &e.sc, e.step, e.i
	in := core.Input{Demand: demand}
	supFrac := 1.0
	if e.p.inj != nil {
		// Fire fault events (and running leaks / expiries) before the
		// controller plans the tick, so the tick sees their effects.
		e.p.inj.Advance(step)
		supFrac = e.p.inj.SupplyFraction()
	}
	if sc.Supply != nil {
		if f := sc.Supply.At(time.Duration(i) * step); f < supFrac {
			supFrac = f
		}
	}
	if sc.Supply != nil || supFrac < 1 {
		in.SupplyLimit = units.Watts(supFrac) * e.p.tree.DCBreaker.Rated
	}
	e.p.ctl.TickInput(in, step, dec)
	tick := dec
	if len(e.required) == cap(e.required) {
		e.growSeries()
	}
	e.required = append(e.required, demand)
	e.achieved = append(e.achieved, tick.Delivered)
	e.degree = append(e.degree, tick.Degree)
	e.dcLoad = append(e.dcLoad, float64(tick.DCLoad))
	e.pduLoad = append(e.pduLoad, float64(tick.PDULoad))
	e.upsPower = append(e.upsPower, float64(tick.UPSPower))
	e.genPower = append(e.genPower, float64(tick.GenPower))
	e.upsSoC = append(e.upsSoC, e.p.tree.UPSSoC())
	e.coolPower = append(e.coolPower, float64(tick.CoolingPower))
	e.tesRate = append(e.tesRate, float64(tick.TESHeatRate))
	e.roomTemp = append(e.roomTemp, float64(tick.RoomTemp))
	e.phase = append(e.phase, tick.Phase)
	if tick.Tripped && e.trippedAt < 0 {
		e.trippedAt = time.Duration(i) * step
	}
	if tick.Delivered > 1 {
		e.sprintSustained += step
		e.excessServed += (tick.Delivered - 1) * step.Seconds()
	}
	stress := e.breakerStress()
	if stress > e.maxStress {
		e.maxStress = stress
	}
	if demand > 1 {
		e.burstTicks++
		// The no-sprinting facility serves exactly 1.0 here, so the
		// achieved value is already the per-tick improvement factor.
		e.burstAchieved += tick.Delivered
	}
	e.i = i + 1
	if e.rec != nil {
		e.rec.RecordPlant(e.plantSample(stress))
	}
	return nil
}

// breakerStress returns the worst thermal accumulator across the DC and PDU
// breakers (1.0 trips), reading each lockstep run the last tick left once.
func (e *Engine) breakerStress() float64 { return e.p.tree.MaxStress() }

// growSeries doubles the telemetry accumulators' capacity once a streaming
// session outlives its current buffers, and gives a new streaming engine
// its first streamPrealloc ticks. One block allocation backs all
// float64 series (capacity-bounded sub-slices, so appends cannot cross into
// a neighbor), and doubling — rather than append's shallower growth curve —
// keeps the copy traffic amortized to a few bytes per tick.
func (e *Engine) growSeries() {
	n := len(e.required)
	newCap := 2 * n
	if newCap < streamPrealloc {
		newCap = streamPrealloc
	}
	block := make([]float64, numSeries*newCap)
	for j, p := range [numSeries]*[]float64{
		&e.required, &e.achieved, &e.degree, &e.dcLoad, &e.pduLoad,
		&e.upsPower, &e.genPower, &e.upsSoC, &e.coolPower, &e.tesRate,
		&e.roomTemp,
	} {
		s := block[j*newCap : j*newCap+n : (j+1)*newCap]
		copy(s, *p)
		*p = s
	}
	phase := make([]int, n, newCap)
	copy(phase, e.phase)
	e.phase = phase
}

// Plant returns the plant state after the last completed tick: that tick's
// workload numbers and power flows with the live headroom ledgers. It is
// the sample an attached PlantRecorder received for the same tick. Before
// the first step the tick fields are zero and only the ledgers are live.
func (e *Engine) Plant() PlantSample { return e.plantSample(e.breakerStress()) }

// plantSample assembles the PlantSample for the last completed tick from the
// engine's series and live component state; stress is the breaker scan the
// caller already holds. Kept out of Step so the detached hot path pays only
// the recorder's nil check.
func (e *Engine) plantSample(stress float64) PlantSample {
	s := PlantSample{
		ThermalMarginC: e.p.room.Margin(),
		BreakerStress:  stress,
		TESSoC:         -1,
		ChipHeadroomJ:  -1,
	}
	if e.p.tank != nil {
		s.TESSoC = e.p.tank.SoC()
	}
	if e.p.chip != nil {
		s.ChipHeadroomJ = float64(e.p.chip.Headroom())
	}
	if e.i == 0 {
		s.RoomTempC = float64(e.p.room.State().Temp)
		s.UPSSoC = e.p.tree.UPSSoC()
		return s
	}
	i := e.i - 1
	s.Tick = i
	s.Now = time.Duration(i) * e.step
	// The required series keeps the raw input the Result echoes; the
	// sample reports the demand the tick served.
	s.Demand = core.SanitizeDemand(e.required[i])
	s.Delivered = e.achieved[i]
	s.Degree = e.degree[i]
	s.Phase = e.phase[i]
	s.DCLoadW = e.dcLoad[i]
	s.PDULoadW = e.pduLoad[i]
	s.UPSPowerW = e.upsPower[i]
	s.GenPowerW = e.genPower[i]
	s.CoolPowerW = e.coolPower[i]
	s.TESRateW = e.tesRate[i]
	s.GridDrawW = max(e.dcLoad[i]-e.genPower[i], 0)
	s.RoomTempC = e.roomTemp[i]
	s.UPSSoC = e.upsSoC[i]
	return s
}

// Finish seals the engine and assembles the Result covering every step so
// far. Further Step or Finish calls return ErrFinished.
func (e *Engine) Finish() (*Result, error) {
	if e.finished {
		return nil, ErrFinished
	}
	e.finished = true
	n, step := e.i, e.step
	sc := e.sc
	if sc.Trace == nil {
		// A streaming session has no input trace; echo the demand it served.
		tr, err := trace.New(step, e.required)
		if err != nil {
			return nil, fmt.Errorf("sim: streaming session of %d ticks: %w", n, err)
		}
		sc.Trace = tr
	}
	res := &Result{
		TrippedAt:        e.trippedAt,
		DCRated:          e.dcRated,
		PDURated:         e.pduRated,
		SprintSustained:  e.sprintSustained,
		ExcessServed:     e.excessServed,
		MaxBreakerStress: e.maxStress,
	}
	if e.burstTicks > 0 {
		res.AvgBurstPerformance = e.burstAchieved / float64(e.burstTicks)
	}
	res.Split = e.p.ctl.Split()
	res.Events = e.p.ctl.Events()
	res.Scenario = sc
	res.Dead = e.p.ctl.Dead()
	if e.p.inj != nil {
		res.FaultsApplied = e.p.inj.Applied()
	}
	for _, ev := range res.Events {
		if ev.Kind == core.EventSprintAborted {
			res.Aborts++
		}
	}

	// The engine is sealed, so the Result takes its series without a copy;
	// full slice expressions keep an append to one from writing into the
	// spare capacity behind it.
	mk := func(samples []float64) *trace.Series {
		return &trace.Series{Step: step, Samples: samples[:len(samples):len(samples)]}
	}
	tele := Telemetry{Phase: e.phase[:len(e.phase):len(e.phase)]}
	tele.Required = mk(e.required)
	tele.Achieved = mk(e.achieved)
	tele.Degree = mk(e.degree)
	tele.DCLoad = mk(e.dcLoad)
	tele.PDULoad = mk(e.pduLoad)
	tele.UPSPower = mk(e.upsPower)
	tele.GenPower = mk(e.genPower)
	tele.UPSSoC = mk(e.upsSoC)
	tele.CoolingPower = mk(e.coolPower)
	tele.TESRate = mk(e.tesRate)
	tele.RoomTemp = mk(e.roomTemp)
	res.Telemetry = tele
	defaultRunCounters(res)
	return res, nil
}
