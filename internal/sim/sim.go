// Package sim runs Data Center Sprinting experiments: it assembles a
// facility from a scenario description, drives the controller with a demand
// trace one second at a time, and reports the paper's metrics — achieved
// versus required performance, the improvement factor over no-sprinting,
// phase timelines, breaker trips and the additional-energy split.
//
// It also provides the Oracle of §V-A: an exhaustive search over constant
// sprinting-degree bounds with perfect knowledge of the burst, and the
// Oracle-built bound table the Prediction strategy consumes.
package sim

import (
	"fmt"
	"time"

	"dcsprint/internal/core"
	"dcsprint/internal/faults"
	"dcsprint/internal/server"
	"dcsprint/internal/trace"
	"dcsprint/internal/units"
)

// Scenario describes one simulation run. Zero fields take the paper's
// defaults (§VI-A).
type Scenario struct {
	// Name labels the run in output.
	Name string
	// Trace is the normalized demand trace (1.0 = no-sprinting capacity).
	Trace *trace.Series
	// Strategy bounds the sprinting degree. Nil means Greedy.
	Strategy core.Strategy
	// Uncontrolled runs the Fig 8(a) baseline instead of the controller.
	Uncontrolled bool
	// NoTES removes the TES tank (ablation).
	NoTES bool
	// Servers is the facility size. Zero means DefaultServers.
	Servers int
	// ServersPerPDU is the PDU group size. Zero means 200.
	ServersPerPDU int
	// DCHeadroom is the under-provisioned facility headroom. Zero means
	// 0.10; use a small negative epsilon via ExplicitZeroHeadroom for 0.
	DCHeadroom float64
	// ExplicitZeroHeadroom forces a 0% DC headroom (DCHeadroom zero value
	// otherwise means "default").
	ExplicitZeroHeadroom bool
	// PUE is the facility PUE. Zero means 1.53.
	PUE float64
	// Reserve is the breaker reserve time. Zero means core.DefaultReserve.
	Reserve time.Duration
	// Server overrides the server model. Zero value means server.Default.
	Server server.Config
	// Weights skews demand across PDU groups (see core.Config.Weights).
	// Nil means uniform.
	Weights []float64
	// Supply optionally limits the utility feed per tick, as a fraction
	// of the DC breaker rating (1.0 = full). Nil means unconstrained.
	// Use it to inject grid curtailments or renewable shortfalls.
	Supply *trace.Series
	// Generator attaches a diesel generator set sized for the facility's
	// normal load (45 s start, 15 s ramp) for supply emergencies.
	Generator bool
	// ChipPCMMinutes bounds chip-level sprinting: the per-chip PCM package
	// is sized to absorb a full sprint's excess heat for this many
	// minutes (§IV's prerequisite). Zero leaves the chips unconstrained.
	ChipPCMMinutes float64
	// BatteryAh overrides the per-server battery capacity (paper default
	// 0.5 Ah). Zero means the default.
	BatteryAh float64
	// TESMinutes overrides the tank size in minutes of full cooling load
	// at peak normal power (paper default 12). Zero means the default;
	// use NoTES to remove the tank entirely.
	TESMinutes float64
	// Faults replays a fault-injection campaign against the run. Non-nil
	// (even empty) also routes the controller's telemetry through the
	// supervised sensor bus; nil keeps the direct-model fast path.
	Faults *faults.Schedule
}

// DefaultServers keeps single runs fast; the facility model is
// scale-invariant in the server count because PDU groups are homogeneous
// (verified by TestScaleInvariance), so experiments default to a small
// facility and paper-scale (180,000 servers) is a config choice.
const DefaultServers = 2000

// Normalized returns a copy of the scenario with every default filled in, or
// an error when the scenario is not runnable. Campaign engines use it to
// fingerprint scenarios and enumerate strategy candidates against the same
// defaults a Run would see.
func (s Scenario) Normalized() (Scenario, error) {
	c := s
	if err := c.normalize(); err != nil {
		return Scenario{}, err
	}
	return c, nil
}

// normalize fills defaults in place and validates the scenario. Batch runs
// require a demand trace; streaming engines (Trace == nil) fill the same
// defaults via normalizeDefaults.
func (s *Scenario) normalize() error {
	if s.Trace == nil || s.Trace.Len() == 0 {
		return fmt.Errorf("sim: scenario %q has no trace", s.Name)
	}
	s.normalizeDefaults()
	return nil
}

// normalizeDefaults fills the paper's defaults in place.
func (s *Scenario) normalizeDefaults() {
	if s.Servers == 0 {
		s.Servers = DefaultServers
	}
	if s.ServersPerPDU == 0 {
		s.ServersPerPDU = 200
	}
	if s.DCHeadroom == 0 && !s.ExplicitZeroHeadroom {
		s.DCHeadroom = 0.10
	}
	if s.PUE == 0 {
		s.PUE = 1.53
	}
	if s.Server.TotalCores == 0 {
		s.Server = server.Default()
	}
}

// Telemetry holds the per-tick series of one run, each aligned with the
// input trace.
type Telemetry struct {
	// Required is the input demand.
	Required *trace.Series
	// Achieved is the delivered normalized throughput.
	Achieved *trace.Series
	// Degree is the realized sprinting degree.
	Degree *trace.Series
	// DCLoad and PDULoad are breaker loads in watts.
	DCLoad, PDULoad *trace.Series
	// UPSPower is total battery discharge in watts.
	UPSPower *trace.Series
	// GenPower is the on-site generator output in watts.
	GenPower *trace.Series
	// UPSSoC is the fleet-aggregate battery state of charge in [0, 1].
	UPSSoC *trace.Series
	// CoolingPower is the plant electrical power in watts.
	CoolingPower *trace.Series
	// TESRate is the TES heat-absorption rate in watts.
	TESRate *trace.Series
	// RoomTemp is the room temperature in Celsius.
	RoomTemp *trace.Series
	// Phase is the controller phase per tick.
	Phase []int
}

// Result is the outcome of one run.
type Result struct {
	// Scenario echoes the normalized scenario.
	Scenario Scenario
	// Telemetry holds the per-tick series.
	Telemetry Telemetry
	// AvgBurstPerformance is the mean achieved performance over the
	// over-capacity ticks, normalized to the no-sprinting performance
	// (which serves exactly 1.0 during those ticks) — the paper's
	// "average performance" metric.
	AvgBurstPerformance float64
	// SprintSustained is the total time delivered performance exceeded 1.
	SprintSustained time.Duration
	// TrippedAt is when a breaker tripped; negative when none did.
	TrippedAt time.Duration
	// Dead reports the facility ended the run down (trip or overheat).
	Dead bool
	// Aborts counts sprint aborts forced by degraded-mode supervision.
	Aborts int
	// MaxBreakerStress is the largest thermal-accumulator value any
	// breaker reached during the run, in [0, 1]; 1 - MaxBreakerStress is
	// the near-trip margin.
	MaxBreakerStress float64
	// ExcessServed integrates the over-capacity work actually served,
	// in seconds of normalized excess throughput.
	ExcessServed float64
	// FaultsApplied counts the fault events fired during the run.
	FaultsApplied int
	// Split is the additional-energy provenance.
	Split core.EnergySplit
	// Events is the controller's transition log.
	Events []core.Event
	// DCRated and PDURated echo the breaker ratings for plotting.
	DCRated, PDURated units.Watts
}

// Improvement returns the paper's headline metric: average performance
// during bursts relative to no sprinting. Without a burst it returns 1.
func (r *Result) Improvement() float64 {
	if r.AvgBurstPerformance == 0 {
		return 1
	}
	return r.AvgBurstPerformance
}

// AvgBurstDegree returns the mean realized sprinting degree over the
// over-capacity ticks — the Oracle run's value is the "real best average
// sprinting degree" the Heuristic strategy estimates. Without a burst it
// returns 1.
func (r *Result) AvgBurstDegree() float64 {
	var sum float64
	var n int
	for i, req := range r.Telemetry.Required.Samples {
		if req > 1 {
			sum += r.Telemetry.Degree.Samples[i]
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// Run executes one scenario. It is a thin loop over Engine.Step: it
// consumes the scenario's trace one sample at a time through exactly the
// code path a streaming session uses, so the batch and streaming results
// cannot drift.
func Run(sc Scenario) (*Result, error) {
	if err := sc.normalize(); err != nil {
		return nil, err
	}
	eng, err := New(sc)
	if err != nil {
		return nil, err
	}
	var dec TickDecision
	for _, demand := range eng.sc.Trace.Samples {
		if err := eng.stepInto(demand, &dec); err != nil {
			return nil, err
		}
	}
	return eng.Finish()
}
