// Package service hosts many concurrent simulated data centres behind an
// NDJSON-over-HTTP control plane. Each session owns one sim.Engine, stepped
// on its caller's goroutine under the session's lock; callers stream demand
// samples in and receive the controller's per-tick decisions out, checkpoint
// sessions to portable snapshot documents, and finish them for the full
// Result.
package service

import (
	"fmt"
	"math"
	"time"

	"dcsprint/internal/core"
	"dcsprint/internal/sim"
	"dcsprint/internal/trace"
	"dcsprint/internal/workload"
)

// Wire headers carrying trace context. The client stamps both on every
// request; the daemon echoes them back and tags its server-side spans and
// flight-recorder events with them, so one id joins the client's view of a
// request with the work it caused.
const (
	// HeaderTrace carries the trace id (one per client interaction).
	HeaderTrace = "X-Dcsprint-Trace"
	// HeaderReq carries the request id (one per wire request). NDJSON step
	// lines carry theirs inline as "rid" instead, since one stream multiplexes
	// many requests.
	HeaderReq = "X-Dcsprint-Req"
)

// TraceContext is the wire-propagated identity of one request: which client
// interaction it belongs to and which request within it this is. The zero
// value means "untraced" and disables all per-request span recording.
type TraceContext struct {
	Trace string
	Req   string
}

// maxIDLen bounds client-supplied trace/request ids: long enough for a
// trace id plus a step ordinal, short enough that a hostile client cannot
// bloat span logs or exposition lines.
const maxIDLen = 64

// sanitizeID keeps ids safe to embed in JSONL, exposition exemplars and
// stderr dumps: only [A-Za-z0-9._-], truncated to maxIDLen; anything else
// is dropped entirely.
func sanitizeID(s string) string {
	if len(s) > maxIDLen {
		s = s[:maxIDLen]
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return ""
		}
	}
	return s
}

// sanitize returns the context with both ids sanitized.
func (tc TraceContext) sanitize() TraceContext {
	return TraceContext{Trace: sanitizeID(tc.Trace), Req: sanitizeID(tc.Req)}
}

// Limits on client-supplied scenarios, so one request cannot make the
// manager allocate an absurd facility or trace.
const (
	// MaxServers bounds the facility size a session may request (paper
	// scale is 180,000 servers).
	MaxServers = 1_000_000
	// MaxTraceSamples bounds an inline or generated demand trace.
	MaxTraceSamples = 1 << 20
)

// ScenarioSpec is the wire form of sim.Scenario: plain JSON, no interfaces,
// no unbounded fields. Fault-injection campaigns are deliberately absent —
// they are a batch-experiment feature and their random state would make
// sessions non-checkpointable. A duration field (the *_seconds fields) left
// zero keeps its default; a non-zero one must be at least a nanosecond and
// fit a time.Duration, or Build rejects the spec.
type ScenarioSpec struct {
	Name string `json:"name,omitempty"`
	// Trace generates the demand trace; nil opens an unbounded streaming
	// session stepped at one-second ticks.
	Trace    *TraceSpec    `json:"trace,omitempty"`
	Strategy *StrategySpec `json:"strategy,omitempty"`

	Uncontrolled         bool      `json:"uncontrolled,omitempty"`
	NoTES                bool      `json:"no_tes,omitempty"`
	Servers              int       `json:"servers,omitempty"`
	ServersPerPDU        int       `json:"servers_per_pdu,omitempty"`
	DCHeadroom           float64   `json:"dc_headroom,omitempty"`
	ExplicitZeroHeadroom bool      `json:"explicit_zero_headroom,omitempty"`
	PUE                  float64   `json:"pue,omitempty"`
	ReserveSeconds       float64   `json:"reserve_seconds,omitempty"`
	Generator            bool      `json:"generator,omitempty"`
	ChipPCMMinutes       float64   `json:"chip_pcm_minutes,omitempty"`
	BatteryAh            float64   `json:"battery_ah,omitempty"`
	TESMinutes           float64   `json:"tes_minutes,omitempty"`
	Weights              []float64 `json:"weights,omitempty"`
}

// TraceSpec describes a demand trace by construction rather than by value,
// so a session request stays small.
type TraceSpec struct {
	// Kind selects the generator: "yahoo" (seeded synthetic Yahoo burst),
	// "ms" (seeded synthetic MS trace), "constant", or "samples" (inline).
	Kind string `json:"kind"`
	// Seed seeds the yahoo and ms generators.
	Seed int64 `json:"seed,omitempty"`
	// Degree is the yahoo burst height.
	Degree float64 `json:"degree,omitempty"`
	// DurationSeconds is the yahoo burst duration or the constant length.
	DurationSeconds float64 `json:"duration_seconds,omitempty"`
	// StepSeconds is the sample interval for constant and samples traces;
	// zero means one second.
	StepSeconds float64 `json:"step_seconds,omitempty"`
	// Value is the constant demand level.
	Value float64 `json:"value,omitempty"`
	// Samples is the inline demand trace for kind "samples".
	Samples []float64 `json:"samples,omitempty"`
}

// StrategySpec describes a sprinting strategy. The zero value means Greedy.
type StrategySpec struct {
	// Kind is "greedy", "fixed", "prediction", "heuristic" or "adaptive".
	Kind string `json:"kind"`
	// Bound is the fixed strategy's constant upper bound.
	Bound float64 `json:"bound,omitempty"`
	// PredictedSeconds is the prediction strategy's forecast burst duration.
	PredictedSeconds float64 `json:"predicted_seconds,omitempty"`
	// EstimatedAvgDegree and Flexibility parameterize the heuristic.
	EstimatedAvgDegree float64 `json:"estimated_avg_degree,omitempty"`
	Flexibility        float64 `json:"flexibility,omitempty"`
	// MinDurationSeconds floors the adaptive strategy's online forecast.
	MinDurationSeconds float64 `json:"min_duration_seconds,omitempty"`
	// Table is the Oracle-built bound table for prediction and adaptive,
	// inline. Without it those strategies fall back to the unbounded
	// degree, exactly as the core package documents.
	Table *core.BoundTable `json:"table,omitempty"`
}

// seconds converts a wire duration to a time.Duration, rejecting one that is
// under a nanosecond or does not fit.
func seconds(field string, v float64) (time.Duration, error) {
	ns := v * float64(time.Second)
	if !(ns >= 1 && ns < math.MaxInt64) {
		return 0, fmt.Errorf("service: %s %v out of range", field, v)
	}
	return time.Duration(ns), nil
}

// optSeconds is seconds for a field whose zero value keeps the default.
func optSeconds(field string, v float64) (time.Duration, error) {
	if v == 0 {
		return 0, nil
	}
	return seconds(field, v)
}

func (t *TraceSpec) build() (*trace.Series, error) {
	step, err := optSeconds("step_seconds", t.StepSeconds)
	if err != nil {
		return nil, err
	}
	if step == 0 {
		step = time.Second
	}
	switch t.Kind {
	case "yahoo":
		d, err := optSeconds("duration_seconds", t.DurationSeconds)
		if err != nil {
			return nil, err
		}
		s, err := workload.SyntheticYahoo(t.Seed, t.Degree, d)
		if err != nil {
			return nil, err
		}
		return s, capSamples(s)
	case "ms":
		s, err := workload.SyntheticMS(t.Seed)
		if err != nil {
			return nil, err
		}
		return s, capSamples(s)
	case "constant":
		if t.DurationSeconds <= 0 {
			return nil, fmt.Errorf("service: constant trace needs duration_seconds > 0")
		}
		d, err := seconds("duration_seconds", t.DurationSeconds)
		if err != nil {
			return nil, err
		}
		// Count the samples before trace.Constant allocates them.
		if n := d / step; n > MaxTraceSamples {
			return nil, fmt.Errorf("service: constant trace of %d samples exceeds the %d cap", n, MaxTraceSamples)
		}
		return trace.Constant(step, d, t.Value)
	case "samples":
		if len(t.Samples) == 0 {
			return nil, fmt.Errorf("service: samples trace is empty")
		}
		if len(t.Samples) > MaxTraceSamples {
			return nil, fmt.Errorf("service: %d samples exceed the %d cap", len(t.Samples), MaxTraceSamples)
		}
		return trace.New(step, t.Samples)
	default:
		return nil, fmt.Errorf("service: unknown trace kind %q", t.Kind)
	}
}

func capSamples(s *trace.Series) error {
	if s.Len() > MaxTraceSamples {
		return fmt.Errorf("service: generated trace of %d samples exceeds the %d cap", s.Len(), MaxTraceSamples)
	}
	return nil
}

func (s *StrategySpec) build() (core.Strategy, error) {
	switch s.Kind {
	case "", "greedy":
		return core.Greedy{}, nil
	case "fixed":
		if s.Bound < 1 {
			return nil, fmt.Errorf("service: fixed strategy needs bound >= 1, got %v", s.Bound)
		}
		return core.FixedBound{Bound: s.Bound}, nil
	case "prediction":
		d, err := optSeconds("predicted_seconds", s.PredictedSeconds)
		if err != nil {
			return nil, err
		}
		return core.Prediction{PredictedDuration: d, Table: s.Table}, nil
	case "heuristic":
		return core.Heuristic{
			EstimatedAvgDegree: s.EstimatedAvgDegree,
			Flexibility:        s.Flexibility,
		}, nil
	case "adaptive":
		d, err := optSeconds("min_duration_seconds", s.MinDurationSeconds)
		if err != nil {
			return nil, err
		}
		return core.Adaptive{Table: s.Table, MinDuration: d}, nil
	default:
		return nil, fmt.Errorf("service: unknown strategy kind %q", s.Kind)
	}
}

// Build converts the spec into a runnable scenario, enforcing the service
// limits. The returned scenario is not yet normalized; sim.New does that.
func (s ScenarioSpec) Build() (sim.Scenario, error) {
	if s.Servers < 0 || s.Servers > MaxServers {
		return sim.Scenario{}, fmt.Errorf("service: servers %d outside [0, %d]", s.Servers, MaxServers)
	}
	if s.ServersPerPDU < 0 {
		return sim.Scenario{}, fmt.Errorf("service: negative servers_per_pdu")
	}
	reserve, err := optSeconds("reserve_seconds", s.ReserveSeconds)
	if err != nil {
		return sim.Scenario{}, err
	}
	sc := sim.Scenario{
		Name:                 s.Name,
		Uncontrolled:         s.Uncontrolled,
		NoTES:                s.NoTES,
		Servers:              s.Servers,
		ServersPerPDU:        s.ServersPerPDU,
		DCHeadroom:           s.DCHeadroom,
		ExplicitZeroHeadroom: s.ExplicitZeroHeadroom,
		PUE:                  s.PUE,
		Reserve:              reserve,
		Generator:            s.Generator,
		ChipPCMMinutes:       s.ChipPCMMinutes,
		BatteryAh:            s.BatteryAh,
		TESMinutes:           s.TESMinutes,
		Weights:              s.Weights,
	}
	if s.Trace != nil {
		tr, err := s.Trace.build()
		if err != nil {
			return sim.Scenario{}, err
		}
		sc.Trace = tr
	}
	if s.Strategy != nil {
		strat, err := s.Strategy.build()
		if err != nil {
			return sim.Scenario{}, err
		}
		sc.Strategy = strat
	}
	return sc, nil
}
