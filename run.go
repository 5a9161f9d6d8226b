package dcsprint

// This file is the simulation facade: scenarios, results, strategies, the
// batch Run entry point and the tick-at-a-time Engine. The trace and
// telemetry surfaces live in workloads.go and telemetry.go; scenario sweeps
// at scale live in campaign.go.

import (
	"time"

	"dcsprint/internal/core"
	"dcsprint/internal/faults"
	"dcsprint/internal/sim"
	"dcsprint/internal/ups"
)

// Re-exported simulation types. The facade keeps examples and downstream
// tools on one import while the implementation lives in internal packages.
type (
	// Scenario describes one simulation run; see sim.Scenario.
	Scenario = sim.Scenario
	// Result is a simulation outcome; see sim.Result.
	Result = sim.Result
	// Telemetry holds a run's per-tick series; see sim.Telemetry.
	Telemetry = sim.Telemetry
	// Strategy bounds the sprinting degree each tick.
	Strategy = core.Strategy
	// State is the controller snapshot a Strategy sees.
	State = core.State
	// BoundTable maps (burst duration, degree) to optimal bounds.
	BoundTable = core.BoundTable
	// FaultSchedule is a parsed fault-injection campaign; see
	// faults.Schedule and the spec grammar in DESIGN.md.
	FaultSchedule = faults.Schedule
	// Event is one controller transition; see core.Event.
	Event = core.Event
)

// Run executes one scenario; see sim.Run.
func Run(sc Scenario) (*Result, error) { return sim.Run(sc) }

// Engine sentinel errors.
var (
	// ErrEngineFinished reports a Step or Finish on a sealed engine.
	ErrEngineFinished = sim.ErrFinished
	// ErrSnapshotFaults reports a Snapshot of an engine with fault
	// injection attached (fault state is not checkpointable).
	ErrSnapshotFaults = sim.ErrSnapshotFaults
)

// Engine drives one scenario tick-at-a-time; see sim.Engine. Step it with
// demand samples, checkpoint it with Snapshot, seal it with Finish.
type Engine = sim.Engine

// TickDecision is the controller's output for one engine step.
type TickDecision = sim.TickDecision

// PlantSample is one per-tick snapshot of physical plant state — power
// flows, thermal margins, storage ledgers; see sim.PlantSample.
type PlantSample = sim.PlantSample

// PlantRecorder receives one PlantSample per completed engine step;
// attach one with Engine.AttachPlantRecorder. See sim.PlantRecorder.
type PlantRecorder = sim.PlantRecorder

// NewEngine builds an engine over a scenario without running it.
func NewEngine(sc Scenario) (*Engine, error) { return sim.New(sc) }

// RestoreEngine rebuilds an engine from a scenario and a Snapshot payload,
// resuming it to a bit-identical future; see sim.Restore.
func RestoreEngine(sc Scenario, snap []byte) (*Engine, error) {
	return sim.Restore(sc, snap)
}

// DeltaVersion is the delta snapshot codec version (DCSPDELT frames).
const DeltaVersion = sim.DeltaVersion

// ErrDeltaBase reports a delta applied to (or encoded against) a snapshot
// that is not its base.
var ErrDeltaBase = sim.ErrDeltaBase

// ApplyDelta folds a delta frame (Engine.DeltaSnapshot) onto the base
// snapshot it was encoded against, returning a full snapshot byte-identical
// to the one the engine would have produced at the delta's tick; see
// sim.ApplyDelta.
func ApplyDelta(base, delta []byte) ([]byte, error) { return sim.ApplyDelta(base, delta) }

// ParseFaultFile loads a fault-injection spec file for Scenario.Faults;
// see faults.ParseFile for the grammar.
func ParseFaultFile(path string) (*FaultSchedule, error) { return faults.ParseFile(path) }

// Greedy returns the paper's Greedy strategy: no degree bound.
func Greedy() Strategy { return core.Greedy{} }

// FixedBound returns a constant degree bound (the Oracle's building block).
func FixedBound(bound float64) Strategy { return core.FixedBound{Bound: bound} }

// Prediction returns the paper's Prediction strategy for a predicted burst
// duration and an Oracle-built table.
func Prediction(predicted time.Duration, table *BoundTable) Strategy {
	return core.Prediction{PredictedDuration: predicted, Table: table}
}

// Heuristic returns the paper's Heuristic strategy for an estimated best
// average sprinting degree and flexibility factor K (paper default 0.10).
func Heuristic(estimatedAvgDegree, flexibility float64) Strategy {
	return core.Heuristic{EstimatedAvgDegree: estimatedAvgDegree, Flexibility: flexibility}
}

// Adaptive returns the online Prediction variant (the paper's future-work
// direction): it forecasts the remaining burst duration with the doubling
// rule instead of requiring an offline estimate.
func Adaptive(table *BoundTable) Strategy {
	return core.Adaptive{Table: table}
}

// BatteryChemistry captures a chemistry's wear law and required service
// life; see ups.Chemistry.
type BatteryChemistry = ups.Chemistry

// LFPChemistry returns the paper's lithium-iron-phosphate battery: an
// 8-year required life tolerating ten full discharges per month.
func LFPChemistry() BatteryChemistry { return ups.LFP() }

// LeadAcidChemistry returns the 4-year lead-acid alternative.
func LeadAcidChemistry() BatteryChemistry { return ups.LeadAcid() }
