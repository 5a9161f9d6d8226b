package ups

import (
	"fmt"
	"math"
)

// Chemistry captures a battery chemistry's wear behaviour and required
// service life — the §III-B basis for borrowing UPS energy: "infrequent
// uses of batteries do not shorten their lifetime to be less than their
// required lifetime (e.g., 4 years for LA and 8 years for LFP)".
//
// Wear follows the usual Wöhler-style depth-of-discharge law: one discharge
// excursion to depth d consumes d^DoDExponent / FullCycleLife of the
// battery's life, so shallow cycles are disproportionately cheap.
type Chemistry struct {
	// Name identifies the chemistry.
	Name string
	// RequiredYears is the service life the facility expects.
	RequiredYears float64
	// FullCycleLife is the number of 100%-depth cycles to end of life.
	FullCycleLife float64
	// DoDExponent shapes the shallow-cycle advantage (>= 1).
	DoDExponent float64
}

// LeadAcid returns the lead-acid chemistry: a 4-year required life and a
// modest cycle budget.
func LeadAcid() Chemistry {
	return Chemistry{Name: "LA", RequiredYears: 4, FullCycleLife: 400, DoDExponent: 2.0}
}

// LFP returns the lithium-iron-phosphate chemistry the paper's distributed
// UPS uses: an 8-year required life, calibrated so that ten full discharges
// per month are lifetime-neutral (the Kontorinis et al. claim in §IV-B).
func LFP() Chemistry {
	return Chemistry{Name: "LFP", RequiredYears: 8, FullCycleLife: 1000, DoDExponent: 2.5}
}

// Validate reports whether the chemistry is usable.
func (c Chemistry) Validate() error {
	if c.RequiredYears <= 0 {
		return fmt.Errorf("ups: chemistry %s: non-positive required life", c.Name)
	}
	if c.FullCycleLife <= 0 {
		return fmt.Errorf("ups: chemistry %s: non-positive cycle life", c.Name)
	}
	if c.DoDExponent < 1 {
		return fmt.Errorf("ups: chemistry %s: DoD exponent %v below 1", c.Name, c.DoDExponent)
	}
	return nil
}

// DamagePerDischarge returns the life fraction one discharge excursion to
// depth dod (0..1) consumes.
func (c Chemistry) DamagePerDischarge(dod float64) float64 {
	if dod <= 0 {
		return 0
	}
	if dod > 1 {
		dod = 1
	}
	return math.Pow(dod, c.DoDExponent) / c.FullCycleLife
}

// MonthlyDamageBudget returns the life fraction the battery may consume per
// month and still reach its required years.
func (c Chemistry) MonthlyDamageBudget() float64 {
	return 1 / (c.RequiredYears * 12)
}

// LifetimeNeutral reports whether a usage pattern — so many discharge
// excursions per month to the given depth — stays within the monthly damage
// budget, i.e. does not shorten the battery below its required life.
func (c Chemistry) LifetimeNeutral(dischargesPerMonth, dod float64) bool {
	return dischargesPerMonth*c.DamagePerDischarge(dod) <= c.MonthlyDamageBudget()+1e-12
}

// ProjectedYears returns the service life implied by a usage pattern.
// A pattern with no wear projects +Inf.
func (c Chemistry) ProjectedYears(dischargesPerMonth, dod float64) float64 {
	damage := dischargesPerMonth * c.DamagePerDischarge(dod)
	if damage <= 0 {
		return math.Inf(1)
	}
	return 1 / damage / 12
}

// WearLedger tracks discharge excursions from a stream of state-of-charge
// observations: an excursion opens when the battery leaves full charge and
// closes — charging the ledger for its depth — when the battery returns to
// full.
type WearLedger struct {
	chem   Chemistry
	open   bool
	minSoC float64
	damage float64
}

// NewWearLedger returns a ledger for the given chemistry.
func NewWearLedger(chem Chemistry) (*WearLedger, error) {
	if err := chem.Validate(); err != nil {
		return nil, err
	}
	return &WearLedger{chem: chem, minSoC: 1}, nil
}

// fullThreshold treats the battery as full again above this SoC.
const fullThreshold = 0.999

// Observe feeds one state-of-charge sample (0..1).
func (l *WearLedger) Observe(soc float64) {
	if soc < 0 {
		soc = 0
	}
	if soc >= fullThreshold {
		if l.open {
			l.damage += l.chem.DamagePerDischarge(1 - l.minSoC)
			l.open = false
			l.minSoC = 1
		}
		return
	}
	l.open = true
	if soc < l.minSoC {
		l.minSoC = soc
	}
}

// Close finalizes a still-open excursion (end of simulation).
func (l *WearLedger) Close() {
	if l.open {
		l.damage += l.chem.DamagePerDischarge(1 - l.minSoC)
		l.open = false
		l.minSoC = 1
	}
}

// Damage returns the accumulated life fraction consumed.
func (l *WearLedger) Damage() float64 { return l.damage }
