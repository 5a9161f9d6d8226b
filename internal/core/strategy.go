// Package core implements the paper's contribution: the three-phase Data
// Center Sprinting controller and the four strategies that bound the
// sprinting degree.
//
// Phase 1 rides the circuit breakers' overload tolerance, continuously
// shrinking the overload bound so the remaining-time-to-trip never falls
// below a reserve. Phase 2 discharges the distributed UPS batteries to carry
// the server power the shrinking breaker bound no longer can. Phase 3
// activates the TES tank before the room overheats, which simultaneously
// enhances cooling and sheds 2/3 of the chiller power from the DC-level
// breaker.
//
// The strategies (§V-A) set the upper bound on the sprinting degree — the
// ratio of active cores to the normal count:
//
//   - Greedy activates whatever the demand asks for.
//   - FixedBound holds a constant bound; the Oracle of the paper is an
//     exhaustive search over FixedBound runs (see the sim package).
//   - Prediction converts a predicted burst duration into an equivalent
//     duration via the running average degree and looks the bound up in an
//     Oracle-built table.
//   - Heuristic scales an initial bound by remaining-energy over
//     remaining-time.
package core

import (
	"time"

	"dcsprint/internal/units"
)

// State is the controller snapshot a Strategy sees each tick.
type State struct {
	// Elapsed is the time since the burst began (first over-capacity
	// demand). Zero before any burst.
	Elapsed time.Duration
	// Demand is the current normalized demand.
	Demand float64
	// PeakDemand is the highest demand observed since the burst began.
	PeakDemand float64
	// AvgDegree is the average realized sprinting degree since the burst
	// began (>= 1; exactly 1 before any sprinting).
	AvgDegree float64
	// MaxDegree is the chip's maximum sprinting degree (total/normal cores).
	MaxDegree float64
	// BudgetTotal is the estimated total additional energy available for
	// this sprint (CB tolerance + UPS + TES chiller savings).
	BudgetTotal units.Joules
	// BudgetLeft is the estimate of that budget still unspent.
	BudgetLeft units.Joules
	// DegreePower is the extra facility power consumed per unit of
	// sprinting degree at full utilization (servers x normal cores x
	// core power), used to convert energy budgets into degree-seconds.
	DegreePower units.Watts
}

// Strategy determines the sprinting-degree upper bound each tick (§V-A).
// The realized degree may be lower when the workload does not need it or
// power/cooling cannot sustain it.
type Strategy interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// UpperBound returns the sprinting-degree upper bound for this tick.
	// The controller clamps the result to [1, MaxDegree].
	UpperBound(st State) float64
}

// budgetFree marks built-in strategies whose UpperBound never reads
// State.BudgetLeft, letting the controller skip the per-tick
// additional-energy estimate (a walk over every breaker and store). A
// strategy outside this package always gets the full State.
type budgetFree interface{ budgetFree() }

// constantBound marks built-in strategies whose UpperBound reads no State
// field but MaxDegree and DegreePower, which never change for a controller:
// the controller asks them once, in New, rather than building a State on
// every tick. A strategy outside this package is asked on every tick.
type constantBound interface{ constantBound() }

// ReadsBudget reports whether the strategy's UpperBound consumes the
// per-tick State.BudgetLeft estimate.
func ReadsBudget(s Strategy) bool {
	_, free := s.(budgetFree)
	return !free
}

// Greedy activates just enough cores for the demand, with no upper bound —
// the paper's baseline strategy. It matches Oracle for short bursts but
// drains the stored energy inefficiently for long ones.
type Greedy struct{}

// Name implements Strategy.
func (Greedy) Name() string { return "greedy" }

// UpperBound implements Strategy.
func (Greedy) UpperBound(st State) float64 { return st.MaxDegree }

func (Greedy) budgetFree()    {}
func (Greedy) constantBound() {}

// FixedBound holds a constant sprinting-degree upper bound. The Oracle
// strategy is an exhaustive search over FixedBound values with perfect
// knowledge of the burst (implemented by campaign.OracleSearch).
type FixedBound struct {
	// Bound is the constant upper bound.
	Bound float64
}

// Name implements Strategy.
func (f FixedBound) Name() string { return "fixed" }

// UpperBound implements Strategy.
func (f FixedBound) UpperBound(State) float64 { return f.Bound }

func (FixedBound) budgetFree()    {}
func (FixedBound) constantBound() {}

// Prediction implements the paper's Prediction strategy: given a predicted
// burst duration BDu_p, it computes the equivalent burst duration
//
//	BDu_e(t) = BDu_p x (SDe_max / SDe_avg(t))
//
// and selects the optimal upper bound for BDu_e from an Oracle-built table.
// Early in a burst SDe_avg is low, so BDu_e is long and the bound starts
// conservatively low, exactly as §VII-B describes.
type Prediction struct {
	// PredictedDuration is BDu_p, possibly perturbed by estimation error.
	PredictedDuration time.Duration
	// Table maps (equivalent duration, burst degree) to the optimal bound.
	Table *BoundTable
}

// Name implements Strategy.
func (Prediction) Name() string { return "prediction" }

// UpperBound implements Strategy.
func (p Prediction) UpperBound(st State) float64 {
	if p.Table == nil || p.PredictedDuration <= 0 {
		return st.MaxDegree
	}
	avg := st.AvgDegree
	if avg < 1 {
		avg = 1
	}
	equivalent := time.Duration(float64(p.PredictedDuration) * st.MaxDegree / avg)
	degree := st.PeakDemand
	if degree < 1 {
		degree = 1
	}
	return p.Table.Lookup(equivalent, degree)
}

func (Prediction) budgetFree() {}

// Adaptive is an online variant of Prediction that needs no offline
// forecast — the direction the paper marks as future work (§V-A: "integrate
// some recently proposed solutions for burst prediction"). It predicts the
// remaining burst duration with the doubling rule — a burst that has lasted
// t is predicted to last t more, so BDu_p(t) = 2t — and otherwise proceeds
// exactly like Prediction: equivalent duration via the running average
// degree, then an Oracle-table lookup.
//
// Early in a burst the prediction is floored at MinDuration so the bound
// starts conservative rather than unconstrained.
type Adaptive struct {
	// Table maps (equivalent duration, burst degree) to the optimal bound.
	Table *BoundTable
	// MinDuration floors the online duration prediction; zero means
	// DefaultAdaptiveFloor.
	MinDuration time.Duration
}

// DefaultAdaptiveFloor is the initial burst-duration guess before any
// evidence accumulates.
const DefaultAdaptiveFloor = 2 * time.Minute

// Name implements Strategy.
func (Adaptive) Name() string { return "adaptive" }

// UpperBound implements Strategy.
func (a Adaptive) UpperBound(st State) float64 {
	if a.Table == nil {
		return st.MaxDegree
	}
	floor := a.MinDuration
	if floor <= 0 {
		floor = DefaultAdaptiveFloor
	}
	predicted := 2 * st.Elapsed
	if predicted < floor {
		predicted = floor
	}
	return Prediction{PredictedDuration: predicted, Table: a.Table}.UpperBound(st)
}

func (Adaptive) budgetFree() {}

// Heuristic implements the paper's Heuristic strategy: from an estimated
// best average sprinting degree SDe_p it forms an initial bound
// SDe_ini = SDe_p x (1 + K) and then tracks the energy schedule
//
//	SDe_u(t) = SDe_ini x (RE(t) / RT(t))
//
// where RE is the fraction of the additional-energy budget remaining and RT
// the fraction of the predicted sprinting duration remaining (§V-A, eq. 2-3).
type Heuristic struct {
	// EstimatedAvgDegree is SDe_p, possibly perturbed by estimation error.
	EstimatedAvgDegree float64
	// Flexibility is the K factor (paper default 0.10).
	Flexibility float64
}

// Name implements Strategy.
func (Heuristic) Name() string { return "heuristic" }

// UpperBound implements Strategy.
func (h Heuristic) UpperBound(st State) float64 {
	sdeP := h.EstimatedAvgDegree
	if sdeP <= 1 {
		// A degenerate estimate (e.g. -100% estimation error) predicts no
		// sprinting at all; start from the most conservative bound and
		// let the energy schedule raise it.
		sdeP = 1 + 1e-3
	}
	ini := sdeP * (1 + h.Flexibility)
	if st.BudgetTotal <= 0 || st.DegreePower <= 0 {
		return ini
	}
	// Predicted sprinting duration, following the paper's eq. 3 literally:
	// SDu_p = EB_tot / SDe_p (with the budget expressed in degree-seconds
	// via DegreePower). Dividing by the TOTAL degree rather than the extra
	// degree shortens SDu_p, which makes RT fall faster and lets the bound
	// recover from an underestimated SDe_p — the robustness §VII-B reports.
	sduP := float64(st.BudgetTotal) / float64(st.DegreePower) / sdeP
	if sduP <= 0 {
		return ini
	}
	re := units.Clamp(float64(st.BudgetLeft)/float64(st.BudgetTotal), 0, 1)
	rt := units.Clamp((sduP-st.Elapsed.Seconds())/sduP, 0.02, 1)
	return ini * re / rt
}
