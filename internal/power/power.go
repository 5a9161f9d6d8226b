// Package power assembles the data-center power-delivery tree the sprinting
// controller manages: a utility feed protected by the DC-level (substation)
// breaker, fanning out to PDUs — each protected by its own breaker and
// backed by the aggregated distributed UPS of its server group — plus the
// cooling plant tapped at the DC level.
//
// Per the paper's setup (§VI-A): each PDU feeds 200 servers and its breaker
// is rated at the NEC 25% headroom over the group's peak normal power
// (55 W x 200 x 1.25 = 13.75 kW); the DC-level breaker is rated at the
// facility's peak normal total power (IT x PUE) times 1 + headroom, where
// the headroom is below the NEC 25% because the facility is
// under-provisioned (default 10%, swept 0-20%).
package power

import (
	"fmt"
	"time"

	"dcsprint/internal/breaker"
	"dcsprint/internal/units"
	"dcsprint/internal/ups"
)

// Config sizes a power-delivery tree.
type Config struct {
	// Servers is the total server count. It must be a multiple of
	// ServersPerPDU.
	Servers int
	// ServersPerPDU is the PDU group size (paper: 200).
	ServersPerPDU int
	// ServerPeakNormal is the per-server peak power without sprinting.
	ServerPeakNormal units.Watts
	// PDUHeadroom is the NEC provisioning headroom of PDU breakers
	// (paper: 0.25).
	PDUHeadroom float64
	// DCHeadroom is the under-provisioned facility headroom of the
	// DC-level breaker over peak normal total power (paper default 0.10).
	DCHeadroom float64
	// PUE converts IT power to total power for DC-level sizing.
	PUE float64
	// Curve is the breaker trip characteristic for every breaker.
	Curve breaker.TripCurve
	// Battery is the per-server UPS battery.
	Battery ups.BatteryConfig
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Servers <= 0 || c.ServersPerPDU <= 0 {
		return fmt.Errorf("power: non-positive server counts (%d, %d)", c.Servers, c.ServersPerPDU)
	}
	if c.Servers%c.ServersPerPDU != 0 {
		return fmt.Errorf("power: servers %d not a multiple of PDU size %d", c.Servers, c.ServersPerPDU)
	}
	if c.ServerPeakNormal <= 0 {
		return fmt.Errorf("power: non-positive server peak power %v", c.ServerPeakNormal)
	}
	if c.PDUHeadroom < 0 || c.DCHeadroom < 0 {
		return fmt.Errorf("power: negative headroom")
	}
	if c.PUE < 1 {
		return fmt.Errorf("power: PUE %v below 1", c.PUE)
	}
	if err := c.Curve.Validate(); err != nil {
		return err
	}
	return c.Battery.Validate()
}

// PDU is one power distribution unit: a breaker feeding a server group,
// with the group's aggregated distributed UPS.
type PDU struct {
	// Breaker protects the PDU feed.
	Breaker *breaker.Breaker
	// UPS is the aggregated battery of the group's servers.
	UPS *ups.Battery
	// Servers is the group size.
	Servers int
}

// Tree is the assembled power-delivery hierarchy.
type Tree struct {
	// DCBreaker protects the substation-level feed (servers + cooling).
	DCBreaker *breaker.Breaker
	// PDUs are the distribution units.
	PDUs []*PDU

	cfg Config

	// runs is the lockstep runs of the flow the last Step stepped, every
	// group its own run before the first; see Runs.
	runs []int
	// changes counts the changes made to PDU breakers and batteries
	// outside Step (breaker.Breaker.TrackChanges, ups.Battery.TrackChanges);
	// runs holds while it reads clean.
	changes, clean uint64

	// groupSteps counts the PDU groups Step has stepped itself rather
	// than copied from a lockstep neighbour, and comparisons the pairs of
	// neighbouring groups Partition has compared; only work-count tests
	// read them.
	groupSteps, comparisons int
}

// New builds the tree: one breaker per PDU, one aggregated UPS per PDU
// group, and the DC-level breaker sized from the headroom and PUE.
func New(cfg Config) (*Tree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nPDU := cfg.Servers / cfg.ServersPerPDU
	pduRated := cfg.ServerPeakNormal * units.Watts(float64(cfg.ServersPerPDU)*(1+cfg.PDUHeadroom))
	dcRated := units.Watts(float64(cfg.ServerPeakNormal) * float64(cfg.Servers) * cfg.PUE * (1 + cfg.DCHeadroom))

	dcb, err := breaker.New("dc", dcRated, cfg.Curve)
	if err != nil {
		return nil, err
	}
	t := &Tree{DCBreaker: dcb, PDUs: make([]*PDU, nPDU), runs: make([]int, nPDU), cfg: cfg}
	pdus := make([]PDU, nPDU)
	for i := range pdus {
		b, err := breaker.New(fmt.Sprintf("pdu-%d", i), pduRated, cfg.Curve)
		if err != nil {
			return nil, err
		}
		batt, err := ups.NewGroup(cfg.ServersPerPDU, cfg.Battery)
		if err != nil {
			return nil, err
		}
		b.TrackChanges(&t.changes)
		batt.TrackChanges(&t.changes)
		pdus[i] = PDU{Breaker: b, UPS: batt, Servers: cfg.ServersPerPDU}
		t.PDUs[i] = &pdus[i]
		t.runs[i] = i + 1
	}
	return t, nil
}

// Config returns the sizing configuration the tree was built with.
func (t *Tree) Config() Config { return t.cfg }

// Partition fills runs with the tree's lockstep runs: maximal runs of
// adjacent PDU groups whose breakers and batteries are in lockstep
// (breaker.Lockstep, ups.Lockstep) and whose keys are equal. runs[g] is one
// past the last group of the run that starts at group g; the entries of
// the other members are left alone. runs and key must be as long as PDUs.
//
// Partition starts from Runs, the runs the last Step left: their members
// are in lockstep, so it compares neighbouring groups only where one of
// those runs ends, and keys everywhere. Runs still merge where neighbours
// have converged. A change Step did not make (a fault, a restore, a reset)
// makes every group its own run in Runs, and Partition then compares every
// neighbouring pair.
func (t *Tree) Partition(runs, key []int) {
	last := t.Runs()
	head, seam := 0, last[0]
	for g := 1; g < len(t.PDUs); g++ {
		split := key[g] != key[g-1]
		if g == seam {
			seam = last[g]
			if !split {
				t.comparisons++
				p, prev := t.PDUs[g], t.PDUs[g-1]
				split = !p.Breaker.Lockstep(prev.Breaker) || !p.UPS.Lockstep(prev.UPS)
			}
		}
		if split {
			runs[head] = g
			head = g
		}
	}
	runs[head] = len(t.PDUs)
}

// Runs returns the lockstep runs of the flow the last Step stepped (see
// Partition): runs[g] is one past the last group of the run starting at
// group g. Before the first Step, and after any change to a PDU breaker or
// battery that Step did not make (Derate, Reset, Fail, Fade, SetState),
// every group is its own run. The runs stand only while breakers and
// batteries change a run at a time, as Step changes them: a Discharge,
// Recharge or Breaker.Step on one member alone, or a direct write to a
// breaker's exported fields, breaks them unseen.
func (t *Tree) Runs() []int {
	if t.changes != t.clean {
		for g := range t.runs {
			t.runs[g] = g + 1
		}
		t.clean = t.changes
	}
	return t.runs
}

// PeakNormalIT returns the facility's peak IT power without sprinting.
func (t *Tree) PeakNormalIT() units.Watts {
	return t.cfg.ServerPeakNormal * units.Watts(t.cfg.Servers)
}

// Flow is one tick's power assignment, produced by the controller.
type Flow struct {
	// PDUServer is the total server power drawn in each PDU group.
	PDUServer []units.Watts
	// PDUUPS is the battery-supplied share of each group's server power;
	// it never exceeds the group's server power.
	PDUUPS []units.Watts
	// Cooling is the cooling-plant power, fed at the DC level.
	Cooling units.Watts
	// Runs partitions the groups into lockstep runs (see Tree.Partition)
	// whose members draw identical power: Step steps each run's first
	// group and copies the outcome to the others. A run of one group steps
	// that group on its own.
	Runs []int
}

// PDULoad returns the power the i-th PDU breaker carries under the flow.
func (f *Flow) PDULoad(i int) units.Watts {
	load := f.PDUServer[i] - f.PDUUPS[i]
	if load < 0 {
		return 0
	}
	return load
}

// DCLoad returns the power the DC-level breaker carries under the flow:
// every PDU draw plus cooling. Battery-supplied power bypasses both breaker
// levels (the batteries sit at the servers). A lockstep run's load is
// computed once and added once per member.
func (f *Flow) DCLoad() units.Watts {
	var total units.Watts
	for g := 0; g < len(f.PDUServer); {
		load := f.PDULoad(g)
		for end := f.Runs[g]; g < end; g++ {
			total += load
		}
	}
	return total + f.Cooling
}

// Step advances every breaker one tick under the given flow and discharges
// the group batteries by their assigned share. It returns the first breaker
// trip encountered (PDU breakers are checked before the DC breaker, as a
// PDU trip blacks out its group first in a real facility). A lockstep run
// of the flow is stepped once; its other members follow the first, and the
// DC load still adds each member's load in group order. The flow's runs
// become the tree's Runs.
func (t *Tree) Step(f *Flow, dt time.Duration) error {
	if len(f.PDUServer) != len(t.PDUs) || len(f.PDUUPS) != len(t.PDUs) {
		return fmt.Errorf("power: flow width %d/%d, want %d", len(f.PDUServer), len(f.PDUUPS), len(t.PDUs))
	}
	if len(f.Runs) != len(t.PDUs) {
		return fmt.Errorf("power: flow runs width %d, want %d", len(f.Runs), len(t.PDUs))
	}
	var firstErr error
	var dcLoad units.Watts
	for g := 0; g < len(t.PDUs); {
		end := f.Runs[g]
		p := t.PDUs[g]
		delivered := p.UPS.Discharge(f.PDUUPS[g], dt)
		// Any shortfall the battery could not deliver falls back on the
		// PDU feed, and through it on the DC feed: the servers draw it
		// regardless.
		shortfall := f.PDUUPS[g] - delivered
		if shortfall < 0 {
			shortfall = 0
		}
		load := f.PDULoad(g) + shortfall
		if err := p.Breaker.Step(load, dt); err != nil && firstErr == nil {
			firstErr = err
		}
		t.groupSteps++
		dcLoad += load
		for m := g + 1; m < end; m++ {
			q := t.PDUs[m]
			q.UPS.Follow(p.UPS)
			q.Breaker.Follow(p.Breaker)
			dcLoad += load
		}
		g = end
	}
	if err := t.DCBreaker.Step(dcLoad+f.Cooling, dt); err != nil && firstErr == nil {
		firstErr = err
	}
	copy(t.runs, f.Runs)
	t.clean = t.changes
	return firstErr
}

// GroupSteps returns how many PDU groups Step has stepped itself, one
// Battery.Discharge and one Breaker.Step each, rather than copied from a
// lockstep neighbour: a deterministic count of the tree's physics work.
func (t *Tree) GroupSteps() int { return t.groupSteps }

// Comparisons returns how many pairs of neighbouring groups Partition has
// compared, one Breaker.Lockstep and one Battery.Lockstep each: a
// deterministic count of the partition's work.
func (t *Tree) Comparisons() int { return t.comparisons }

// Tripped reports whether any breaker in the tree has opened.
func (t *Tree) Tripped() bool {
	if t.DCBreaker.Tripped() {
		return true
	}
	for _, p := range t.PDUs {
		if p.Breaker.Tripped() {
			return true
		}
	}
	return false
}

// Reset closes every breaker and clears thermal state (experiment reuse).
func (t *Tree) Reset() {
	t.DCBreaker.Reset()
	for _, p := range t.PDUs {
		p.Breaker.Reset()
	}
}

// StoredUPSEnergy returns the total deliverable battery energy remaining.
func (t *Tree) StoredUPSEnergy() units.Joules {
	var total units.Joules
	for _, p := range t.PDUs {
		total += p.UPS.Available()
	}
	return total
}

// UPSSoC returns the fleet-aggregate battery state of charge in [0, 1].
// Each of Runs' runs has its first battery read once and counted for every
// member, in group order.
func (t *Tree) UPSSoC() float64 {
	runs := t.Runs()
	var stored, total units.Joules
	for g := 0; g < len(t.PDUs); {
		end := runs[g]
		u := t.PDUs[g].UPS
		s, capacity := u.Stored(), u.TotalEnergy()
		for ; g < end; g++ {
			stored += s
			total += capacity
		}
	}
	if total <= 0 {
		return 0
	}
	return float64(stored) / float64(total)
}

// MaxStress returns the worst thermal accumulator across the DC and PDU
// breakers (1.0 trips). The first breaker of each of Runs' runs speaks for
// the run.
func (t *Tree) MaxStress() float64 {
	runs := t.Runs()
	stress := t.DCBreaker.Accumulator()
	for g := 0; g < len(t.PDUs); g = runs[g] {
		if acc := t.PDUs[g].Breaker.Accumulator(); acc > stress {
			stress = acc
		}
	}
	return stress
}
