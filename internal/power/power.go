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

// pdu is one power distribution unit: a breaker feeding a server group,
// with the group's aggregated distributed UPS.
type pdu struct {
	breaker breaker.Breaker
	ups     ups.Battery
}

// Tree is the assembled power-delivery hierarchy. Its PDU groups fall into
// lockstep runs (see Runs), and a run's state is held once, by its first
// group. A member gets its own copy (it is materialized) only when it
// comes to start a run: Partition or a flow's runs split it, or Own hands
// it out for a change of its own.
type Tree struct {
	// DCBreaker protects the substation-level feed (servers + cooling).
	DCBreaker *breaker.Breaker

	cfg Config

	// pdus and runs hold each group's breaker and battery, and Runs; only
	// the entries of the groups that start a run are current.
	pdus []pdu
	runs []int
	// headOf maps every group to the first group of its run, for the
	// readers of one group; it is rebuilt on demand once runs change.
	headOf  []int
	headsOK bool

	steps, comparisons, copies int // see Work
}

// New builds the tree: one breaker per PDU, one aggregated UPS per PDU
// group, and the DC-level breaker sized from the headroom and PUE. Every
// group starts as its own run.
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
	b, err := breaker.New("pdu", pduRated, cfg.Curve)
	if err != nil {
		return nil, err
	}
	batt, err := ups.NewGroup(cfg.ServersPerPDU, cfg.Battery)
	if err != nil {
		return nil, err
	}
	t := &Tree{DCBreaker: dcb, pdus: make([]pdu, nPDU), runs: make([]int, nPDU), headOf: make([]int, nPDU), cfg: cfg}
	for i := range t.pdus {
		t.pdus[i] = pdu{breaker: *b, ups: *batt}
		t.pdus[i].breaker.Name = fmt.Sprintf("pdu-%d", i)
		t.runs[i] = i + 1
	}
	return t, nil
}

// Config returns the sizing configuration the tree was built with.
func (t *Tree) Config() Config { return t.cfg }

// Groups returns the number of PDU groups.
func (t *Tree) Groups() int { return len(t.pdus) }

// Breaker returns a copy of group g's PDU breaker, to read.
func (t *Tree) Breaker(g int) breaker.Breaker {
	b := t.pdus[t.head(g)].breaker
	b.Name = t.pdus[g].breaker.Name
	return b
}

// UPS returns a copy of group g's battery, to read.
func (t *Tree) UPS(g int) ups.Battery { return t.pdus[t.head(g)].ups }

// Run returns the breaker and battery that hold the state of the run
// starting at group g, which must start one of Runs' runs. What changes
// them changes every member of the run: change them only as the whole run
// changes together, as a recharge every member was asked for does.
func (t *Tree) Run(g int) (*breaker.Breaker, *ups.Battery) {
	p := &t.pdus[g]
	return &p.breaker, &p.ups
}

// Own splits group g from its run into a run of its own and returns its
// breaker and battery, for a change to g alone (a fault, a reset, a
// restore). Make the change at once: a later Partition or Step may merge g
// into a run again.
func (t *Tree) Own(g int) (*breaker.Breaker, *ups.Battery) {
	h := t.head(g)
	if end := t.runs[h]; end > g+1 {
		t.materialize(g+1, h)
		t.runs[g+1], t.runs[g], t.headsOK = end, g+1, false
	}
	if h < g {
		t.materialize(g, h)
		t.runs[h], t.runs[g], t.headsOK = g, g+1, false
	}
	return t.Run(g)
}

// head returns the first group of the run holding group g's state.
func (t *Tree) head(g int) int {
	if !t.headsOK {
		for h := 0; h < len(t.runs); h = t.runs[h] {
			for m := h; m < t.runs[h]; m++ {
				t.headOf[m] = h
			}
		}
		t.headsOK = true
	}
	return t.headOf[g]
}

// materialize gives group g, a member of the run starting at group h, its
// own copy of the run's state.
func (t *Tree) materialize(g, h int) {
	name := t.pdus[g].breaker.Name
	t.pdus[g] = t.pdus[h]
	t.pdus[g].breaker.Name = name
	t.copies++
}

// setEnd makes the run starting at group h end at group end. A changed
// partition changes the end of its first changed run, which starts where
// an unchanged run ends, so setEnd sees every change.
func (t *Tree) setEnd(h, end int) {
	if t.runs[h] != end {
		t.runs[h], t.headsOK = end, false
	}
}

// Partition makes the tree's lockstep runs the maximal runs of adjacent PDU
// groups whose breakers and batteries are in lockstep (breaker.Lockstep,
// ups.Lockstep) and that lie in one class, and returns them (Runs). classes
// partitions the groups as runs do: classes[g] is one past the last group
// of the class that starts at group g.
//
// Partition compares neighbouring groups only where one of the tree's runs
// ends inside a class: runs merge where neighbours have converged.
func (t *Tree) Partition(classes []int) []int { return t.partition(classes, true) }

// partition is Partition, or, without compare, makes classes, whose
// members must be in lockstep, the tree's runs.
func (t *Tree) partition(classes []int, compare bool) []int {
	n := len(t.pdus)
	head := 0                     // the run being built
	held, heldEnd := 0, t.runs[0] // the old run holding the group before the seam
	classEnd := classes[0]
	for {
		g := min(heldEnd, classEnd)
		if g == n {
			break
		}
		split := g == classEnd
		if split {
			classEnd = classes[g]
		}
		if g == heldEnd {
			prev := held
			held, heldEnd = g, t.runs[g]
			if !split && compare {
				t.comparisons++
				p, q := &t.pdus[g], &t.pdus[prev]
				split = !p.breaker.Lockstep(&q.breaker) || !p.ups.Lockstep(&q.ups)
			}
		} else {
			t.materialize(g, held)
		}
		if split {
			t.setEnd(head, g)
			head = g
		}
	}
	t.setEnd(head, n)
	return t.runs
}

// Runs returns the tree's lockstep runs: runs[g] is one past the last group
// of the run starting at group g, whose state every member shares. A new
// tree's groups are each a run of their own.
func (t *Tree) Runs() []int { return t.runs }

// PeakNormalIT returns the facility's peak IT power without sprinting.
func (t *Tree) PeakNormalIT() units.Watts {
	return t.cfg.ServerPeakNormal * units.Watts(t.cfg.Servers)
}

// Flow is one tick's power assignment, produced by the controller.
// Its per-group entries are read only at the first group of each of Runs'
// runs, for every member of the run.
type Flow struct {
	// PDUServer is the total server power drawn in each PDU group.
	PDUServer []units.Watts
	// PDUUPS is the battery-supplied share of each group's server power;
	// it never exceeds the group's server power.
	PDUUPS []units.Watts
	// Cooling is the cooling-plant power, fed at the DC level.
	Cooling units.Watts
	// Runs partitions the groups into lockstep runs (see Tree.Partition)
	// whose members are in lockstep and draw identical power: Step steps
	// each run once. A run of one group steps that group on its own.
	Runs []int
}

// PDULoad returns the power the breaker of group i, the first of a run,
// carries under the flow.
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
	for g := 0; g < len(f.Runs); {
		load := f.PDULoad(g)
		for end := f.Runs[g]; g < end; g++ {
			total += load
		}
	}
	return total + f.Cooling
}

// Step advances every breaker one tick of dt seconds under the given flow
// and discharges the group batteries by their assigned share. It returns
// the first breaker trip encountered (PDU breakers are checked before the
// DC breaker, as a PDU trip blacks out its group first in a real
// facility). The flow's runs become the tree's runs, and each is stepped
// once; the DC load still adds each member's load in group order.
func (t *Tree) Step(f *Flow, dt float64) error {
	if len(f.PDUServer) != len(t.pdus) || len(f.PDUUPS) != len(t.pdus) {
		return fmt.Errorf("power: flow width %d/%d, want %d", len(f.PDUServer), len(f.PDUUPS), len(t.pdus))
	}
	if len(f.Runs) != len(t.pdus) {
		return fmt.Errorf("power: flow runs width %d, want %d", len(f.Runs), len(t.pdus))
	}
	if &f.Runs[0] != &t.runs[0] { // Partition's runs are the tree's already
		t.partition(f.Runs, false)
	}
	var firstErr error
	var dcLoad units.Watts
	for g := 0; g < len(t.pdus); {
		p := &t.pdus[g]
		delivered := p.ups.Discharge(f.PDUUPS[g], dt)
		// Any shortfall the battery could not deliver falls back on the
		// PDU feed, and through it on the DC feed: the servers draw it
		// regardless.
		shortfall := f.PDUUPS[g] - delivered
		if shortfall < 0 {
			shortfall = 0
		}
		load := f.PDULoad(g) + shortfall
		if err := p.breaker.Step(load, dt); err != nil && firstErr == nil {
			firstErr = err
		}
		t.steps++
		for end := f.Runs[g]; g < end; g++ {
			dcLoad += load
		}
	}
	if err := t.DCBreaker.Step(dcLoad+f.Cooling, dt); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Work returns deterministic counts of the tree's work: the runs Step has
// stepped (one Battery.Discharge and one Breaker.Step each), the pairs of
// groups Partition has compared (one Breaker.Lockstep and one
// Battery.Lockstep each), and the states copied to materialize a member.
func (t *Tree) Work() (steps, comparisons, copies int) { return t.steps, t.comparisons, t.copies }

// Tripped reports whether any breaker in the tree has opened.
func (t *Tree) Tripped() bool {
	if t.DCBreaker.Tripped() {
		return true
	}
	for g := 0; g < len(t.pdus); g = t.runs[g] {
		if t.pdus[g].breaker.Tripped() {
			return true
		}
	}
	return false
}

// Reset closes every breaker and clears thermal state (experiment reuse).
// Each run is reset once: its members stay in lockstep.
func (t *Tree) Reset() {
	t.DCBreaker.Reset()
	for g := 0; g < len(t.pdus); g = t.runs[g] {
		t.pdus[g].breaker.Reset()
	}
}

// StoredUPSEnergy returns the total deliverable battery energy remaining,
// each run's read once and added for every member, in group order.
func (t *Tree) StoredUPSEnergy() units.Joules {
	var total units.Joules
	for g := 0; g < len(t.pdus); {
		avail := t.pdus[g].ups.Available()
		for end := t.runs[g]; g < end; g++ {
			total += avail
		}
	}
	return total
}

// UPSSoC returns the fleet-aggregate battery state of charge in [0, 1].
// Each of Runs' runs has its first battery read once and counted for every
// member, in group order.
func (t *Tree) UPSSoC() float64 {
	var stored, total units.Joules
	for g := 0; g < len(t.pdus); {
		end := t.runs[g]
		u := &t.pdus[g].ups
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
	stress := t.DCBreaker.Accumulator()
	for g := 0; g < len(t.pdus); g = t.runs[g] {
		if acc := t.pdus[g].breaker.Accumulator(); acc > stress {
			stress = acc
		}
	}
	return stress
}
