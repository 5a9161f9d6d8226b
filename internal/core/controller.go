package core

import (
	"fmt"
	"math"
	"time"

	"dcsprint/internal/breaker"
	"dcsprint/internal/chip"
	"dcsprint/internal/cooling"
	"dcsprint/internal/faults"
	"dcsprint/internal/genset"
	"dcsprint/internal/power"
	"dcsprint/internal/server"
	"dcsprint/internal/tes"
	"dcsprint/internal/units"
	"dcsprint/internal/ups"
)

// DefaultReserve is the reserve time-to-trip the controller maintains on
// every breaker (§V-B: "If the remaining time is less than 1 minute, we
// decrease the upper bound of CB overload until the remaining time equals
// to 1 minute. Note here the 1 minute is a user-defined parameter").
const DefaultReserve = time.Minute

// DefaultThermalGuard is the minimum time-to-overheat the controller keeps
// in hand; a plan that would overheat the room sooner is rejected and the
// sprinting degree lowered.
const DefaultThermalGuard = 30 * time.Second

// DefaultBurstCooloff is how long demand must stay within normal capacity
// before the controller considers a burst event over. The MS trace's
// "consecutive bursts" separated by short dips are treated as one event, as
// in the paper's aggregate 16.2-minute burst duration.
const DefaultBurstCooloff = 2 * time.Minute

// Config assembles a sprinting controller.
type Config struct {
	// Server is the server model (cores, power, performance).
	Server server.Config
	// Cooling is the plant/thermal model configuration.
	Cooling cooling.Config
	// Strategy bounds the sprinting degree. Nil means Greedy.
	Strategy Strategy
	// Reserve is the breaker reserve time-to-trip. Zero means
	// DefaultReserve.
	Reserve time.Duration
	// Weights skews the demand across PDU groups: group g sees
	// demand x Weights[g]. Nil means uniform. Values must be positive;
	// they are normalized to mean 1 so the facility-level demand is
	// unchanged. Heterogeneous weights exercise the paper's §V-B
	// parent/child breaker coordination.
	Weights []float64
	// Uncontrolled disables every data-center-level safeguard: cores
	// follow demand, all power flows through the breakers, no UPS or TES.
	// This is the paper's Fig 8(a) baseline, which trips the breakers.
	Uncontrolled bool
}

// Input is one tick's environment.
type Input struct {
	// Demand is the normalized facility demand (1.0 = peak-normal
	// capacity).
	Demand float64
	// SupplyLimit optionally caps the utility power available at the DC
	// level (a grid curtailment or renewable shortfall). Zero means
	// unlimited; the breaker rating still applies either way.
	SupplyLimit units.Watts
}

// TickResult reports one tick of controller output and telemetry.
type TickResult struct {
	// Demand is the normalized demand the tick served.
	Demand float64
	// Delivered is the normalized throughput achieved (<= Demand).
	Delivered float64
	// ActiveCores is the largest per-server active core count across the
	// PDU groups (they differ only under heterogeneous weights).
	ActiveCores int
	// Degree is the mean realized sprinting degree across groups.
	Degree float64
	// Bound is the strategy's clamped upper bound this tick.
	Bound float64
	// Phase is 0 outside sprinting, then 1 (CB), 2 (UPS), 3 (TES).
	Phase int
	// ITPower is the total server power.
	ITPower units.Watts
	// CoolingPower is the cooling-plant electrical power.
	CoolingPower units.Watts
	// DCLoad is the load on the DC-level breaker.
	DCLoad units.Watts
	// PDULoad is the load on the most-loaded PDU breaker.
	PDULoad units.Watts
	// UPSPower is the total battery discharge power.
	UPSPower units.Watts
	// GenPower is the on-site generator output (zero without a genset).
	GenPower units.Watts
	// TESHeatRate is the heat absorption rate of the TES tank.
	TESHeatRate units.Watts
	// RoomTemp is the room temperature after the tick.
	RoomTemp units.Celsius
	// Tripped reports a breaker trip during this tick.
	Tripped bool
	// Dead reports that the facility is down (post-trip or post-overheat
	// shutdown).
	Dead bool
}

// EnergySplit reports where a sprint's additional energy came from
// (§VII-A: with the MS trace, UPS and TES provide 54% and 13%).
type EnergySplit struct {
	// UPS is the energy delivered by batteries.
	UPS units.Joules
	// TES is the chiller energy saved while the TES carried cooling.
	TES units.Joules
	// CBOverload is the energy delivered above breaker ratings.
	CBOverload units.Joules
}

// Total returns the total additional energy.
func (e EnergySplit) Total() units.Joules { return e.UPS + e.TES + e.CBOverload }

// Controller runs the three-phase Data Center Sprinting methodology over a
// power tree, a room thermal model and an optional TES tank.
type Controller struct {
	cfg     Config
	srv     *server.Model // server power/perf lookup tables over cfg.Server
	tree    *power.Tree
	room    *cooling.Room
	tank    *tes.Tank // nil disables Phase 3 (§V: "data centers without TES")
	gen     *genset.Generator
	chip    *chip.Thermal
	weights []float64 // normalized per-PDU demand weights, mean 1
	// groupSize is the number of servers in each PDU group.
	groupSize units.Watts

	// needBudget caches ReadsBudget(cfg.Strategy): whether the per-tick
	// strategy State must include the remaining-budget estimate.
	needBudget bool
	// maxDegree is cfg.Server.MaxDegree() and degreePower the extra
	// facility power of one unit of sprinting degree; both depend only on
	// the server model and the tree's shape.
	maxDegree   float64
	degreePower units.Watts
	// constBound is set when the strategy's bound never changes (see
	// constantBound); bound is then its clamped bound and capCores the
	// per-server core cap it allows, both resolved once in New.
	constBound bool
	bound      float64
	capCores   int

	burstActive bool
	sprintTime  time.Duration // cumulative over-capacity time this event
	cooloff     time.Duration // continuous within-capacity time
	peakDemand  float64
	degreeSum   float64
	degreeTicks int
	budgetTotal units.Joules
	tesActive   bool
	tesDelay    time.Duration
	dead        bool

	// Supervision layer (nil sensors = trust the physical models directly;
	// the planner then reads component state and behaves exactly as before).
	sensors       faults.Sensors
	sup           *supervisor
	view          sensorView
	tempEst       units.Celsius // heat-balance dead reckoning of the room
	chillerHealth float64       // chiller capacity fraction in [0, 1]
	degradeCap    float64       // degraded-mode sprinting-degree cap
	prevSprinting bool
	prevShed      bool

	// Event-log state.
	now           time.Duration
	events        []Event
	prevPhase     int
	prevTES       bool
	prevGenStart  bool
	prevGenOnline bool
	chipExhausted bool

	split EnergySplit

	buf scratch
}

// groupPlan is one PDU group's desired operating point while a plan is
// being built.
type groupPlan struct {
	row       int // the group's demand row in the plan context
	cores     int
	perServer units.Watts
	delivered float64
}

// scratch holds the per-tick planning buffers. plan rewrites every entry it
// uses on each call, so one set of buffers serves the whole run and the
// steady-state tick loop performs no heap allocations. Nothing here is
// controller state: snapshots ignore it and a restored controller simply
// reallocates it, starting its cap search cold.
type scratch struct {
	groups      []groupPlan
	wants       []units.Watts
	flowServer  []units.Watts
	flowUPS     []units.Watts
	alloc       []units.Watts
	allocIdx    []int
	upsRecharge []units.Watts

	ctx planContext

	// built is the plan the latest plan call assembled; plan returns a
	// pointer to it, so each probe overwrites the last.
	built plan

	// capHint is the last cap search's answer, -1 for none; the next
	// search probes its successor and then it before bisecting.
	capHint int
	// plans counts plan calls; only tests read it.
	plans int
	// descentSteps counts the operating points descend evaluates; only
	// tests read it.
	descentSteps int
	// demandPows counts the demand rows built, one DemandPow each; only
	// tests read it.
	demandPows int
	// onSearch, set only by tests, observes each cap search's answer
	// before the winning plan is returned.
	onSearch func(capCores int, in Input, secs float64, best int)
}

// planContext holds what every plan probe of one tick reads but none can
// change: breaker and battery limits, the supply, the server operating
// points of each distinct group demand, and the lockstep runs of PDU groups
// that every stage computes once. prepare rebuilds it once per tick before
// the first probe. The per-group buffers here and in scratch are read and
// written at the first group of each run only: a run's members share its
// entries.
type planContext struct {
	supply  units.Watts   // utility limit plus generator output; 0 = unlimited
	dcAllow units.Watts   // DC breaker reserve bound, capped by the supply
	pduMax  []units.Watts // per-run breaker reserve bound
	upsMax  []units.Watts // per-run battery output limit
	// classes partitions the groups as runs do into classes that plan
	// alike: maximal runs of equal weight, or every group its own class
	// when sensors are attached. It is fixed for the controller's life.
	classes []int
	rowOf   []int       // per-class and per-run index into rows
	rows    []demandRow // one per distinct group demand; uniform weights need one
	// runs is the tick's lockstep runs (power.Tree.Partition by classes):
	// runs[g] is one past the last group of the run starting at g.
	runs []int
	// points counts the operating points plan computes; only tests read
	// it.
	points int
}

// demandRow is one distinct group demand with its tick-invariant terms.
// Plans run a group at want cores or fewer, and below want every core
// count is saturated (demand exceeds its capacity), where PowerAtDemand
// does not depend on the demand and costs two table reads. The one
// demand-dependent operating point, at want cores, is computed here once.
type demandRow struct {
	demand    float64
	pow       float64     // server.Model.DemandPow(demand)
	want      int         // max(CoresForThroughput(demand), NormalCores)
	perServer units.Watts // PowerAtDemand(want, demand)
	delivered float64
}

// groupHeat totals the server heat across the groups' current operating
// points, adding each run's heat once per member (hoisted out of plan so
// the tick loop carries no closures).
func groupHeat(groups []groupPlan, runs []int, groupSize units.Watts) units.Watts {
	var total units.Watts
	for g := 0; g < len(groups); {
		heat := groups[g].perServer * groupSize
		for end := runs[g]; g < end; g++ {
			total += heat
		}
	}
	return total
}

// newScratch sizes the planning buffers for nPDU groups. The per-group
// buffers are carved from two backing arrays; the demand rows start with
// room for one (uniform weights) and grow to the most distinct demands a
// tick has seen.
func newScratch(nPDU int) scratch {
	watts := make([]units.Watts, 7*nPDU)
	next := func() []units.Watts {
		s := watts[:nPDU:nPDU]
		watts = watts[nPDU:]
		return s
	}
	ints := make([]int, 3*nPDU)
	nextInts := func() []int {
		s := ints[:nPDU:nPDU]
		ints = ints[nPDU:]
		return s
	}
	return scratch{
		groups:      make([]groupPlan, nPDU),
		wants:       next(),
		flowServer:  next(),
		flowUPS:     next(),
		alloc:       next(),
		allocIdx:    nextInts()[:0],
		upsRecharge: next(),
		ctx: planContext{
			pduMax:  next(),
			upsMax:  next(),
			rowOf:   nextInts(),
			classes: nextInts(),
			rows:    make([]demandRow, 0, 1),
		},
		capHint: -1,
	}
}

// plan is one tick's (possibly unsafe, when forced) power assignment.
type plan struct {
	flow          power.Flow
	delivered     float64 // facility-normalized throughput
	maxCores      int     // largest group core count
	meanDegree    float64
	heatGen       units.Watts
	heatAbsorbed  units.Watts
	chillerAbsorb units.Watts // chiller share of heatAbsorbed
	chillerElec   units.Watts
	tesAbsorb     units.Watts
	upsRecharge   []units.Watts
	tesRecharge   units.Watts
	tesOn         bool
	sprinting     bool
	thermalShed   bool
}

// New returns a controller. The tank may be nil (no TES installed).
func New(cfg Config, tree *power.Tree, room *cooling.Room, tank *tes.Tank) (*Controller, error) {
	if tree == nil || room == nil {
		return nil, fmt.Errorf("core: nil tree or room")
	}
	if err := cfg.Server.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Cooling.Validate(); err != nil {
		return nil, err
	}
	if cfg.Strategy == nil {
		cfg.Strategy = Greedy{}
	}
	if cfg.Reserve <= 0 {
		cfg.Reserve = DefaultReserve
	}
	weights, err := normalizeWeights(cfg.Weights, tree.Groups())
	if err != nil {
		return nil, err
	}
	groupSize := tree.Config().ServersPerPDU
	servers := tree.Groups() * groupSize
	c := &Controller{
		cfg:           cfg,
		srv:           server.NewModel(cfg.Server),
		needBudget:    ReadsBudget(cfg.Strategy),
		maxDegree:     cfg.Server.MaxDegree(),
		degreePower:   cfg.Server.CorePower * units.Watts(cfg.Server.NormalCores*servers),
		tree:          tree,
		room:          room,
		tank:          tank,
		weights:       weights,
		groupSize:     units.Watts(groupSize),
		tempEst:       cfg.Cooling.Ambient,
		chillerHealth: 1,
		degradeCap:    cfg.Server.MaxDegree(),
		tesDelay: cooling.TESActivationDelay(
			cfg.Server.PeakNormalPower(), cfg.Server.MaxAdditionalPower()),
		buf: newScratch(tree.Groups()),
	}
	classes := c.buf.ctx.classes
	for g, head := 1, 0; g <= len(weights); g++ {
		if g == len(weights) || weights[g] != weights[g-1] {
			classes[head], head = g, g
		}
	}
	if _, ok := cfg.Strategy.(constantBound); ok {
		c.constBound = true
		st := State{MaxDegree: c.maxDegree, DegreePower: c.degreePower}
		c.bound = units.Clamp(cfg.Strategy.UpperBound(st), 1, c.maxDegree)
		c.capCores = cfg.Server.CoresForDegree(c.bound)
	}
	return c, nil
}

// normalizeWeights validates per-group weights and scales them to mean 1.
func normalizeWeights(w []float64, groups int) ([]float64, error) {
	out := make([]float64, groups)
	if len(w) == 0 {
		for i := range out {
			out[i] = 1
		}
		return out, nil
	}
	if len(w) != groups {
		return nil, fmt.Errorf("core: %d weights for %d PDU groups", len(w), groups)
	}
	var sum float64
	for i, v := range w {
		if v <= 0 {
			return nil, fmt.Errorf("core: non-positive weight %v at group %d", v, i)
		}
		sum += v
	}
	mean := sum / float64(groups)
	for i, v := range w {
		out[i] = v / mean
	}
	return out, nil
}

// AttachGenerator gives the controller a diesel generator set to start
// during utility supply emergencies (§III-B's bridge machinery). Attach
// before the first tick.
func (c *Controller) AttachGenerator(g *genset.Generator) { c.gen = g }

// AttachChipThermal gives the controller the chip-level PCM model whose
// exhaustion ends Data Center Sprinting (§IV: "If the chip-level sprinting
// can be no longer sustained, we also finish Data Center Sprinting").
// Attach before the first tick.
func (c *Controller) AttachChipThermal(t *chip.Thermal) { c.chip = t }

// chipCoreCap returns the largest per-server core count the chip package
// can sustain for the reserve window given its remaining PCM budget.
func (c *Controller) chipCoreCap() int {
	if c.chip == nil {
		return c.cfg.Server.TotalCores
	}
	maxChip := c.chip.MaxPower(c.cfg.Reserve)
	srv := c.cfg.Server
	n := int(float64(maxChip-srv.ChipIdlePower) / float64(srv.CorePower))
	if n < srv.NormalCores {
		n = srv.NormalCores
	}
	if n > srv.TotalCores {
		n = srv.TotalCores
	}
	return n
}

// Split returns the additional-energy provenance accumulated so far.
func (c *Controller) Split() EnergySplit { return c.split }

// Dead reports whether an uncontrolled trip has shut the facility down.
func (c *Controller) Dead() bool { return c.dead }

// state builds the strategy snapshot for this tick, for a strategy whose
// bound is not constant. The remaining-budget estimate reads every breaker
// and store, so it is only computed for strategies that actually read it
// (Heuristic, and anything from outside the package).
func (c *Controller) state(demand float64) State {
	avg := 1.0
	if c.degreeTicks > 0 {
		avg = c.degreeSum / float64(c.degreeTicks)
	}
	st := State{
		Elapsed:     c.sprintTime,
		Demand:      demand,
		PeakDemand:  c.peakDemand,
		AvgDegree:   avg,
		MaxDegree:   c.maxDegree,
		BudgetTotal: c.budgetTotal,
		DegreePower: c.degreePower,
	}
	if c.needBudget {
		st.BudgetLeft = EstimateBudget(c.tree, c.tank, c.cfg.Cooling, c.cfg.Reserve)
	}
	return st
}

// Tick advances the controller by dt under the given normalized demand with
// an unconstrained utility supply.
func (c *Controller) Tick(demand float64, dt time.Duration) TickResult {
	var res TickResult
	c.TickInput(Input{Demand: demand}, dt, &res)
	return res
}

// SanitizeDemand is the demand a tick serves for a raw demand signal: a
// corrupt (NaN or infinite) signal reads as full normal load, conservative
// but serviceable.
func SanitizeDemand(d float64) float64 {
	if math.IsNaN(d) || math.IsInf(d, 0) {
		return 1
	}
	return d
}

// TickInput advances the controller by dt under the given environment and
// writes the tick's result to res.
func (c *Controller) TickInput(in Input, dt time.Duration, res *TickResult) {
	// Sanitize the environment: a corrupt demand signal reads as full
	// normal load, a corrupt or negative supply limit as no limit
	// information at all.
	in.Demand = SanitizeDemand(in.Demand)
	if math.IsNaN(float64(in.SupplyLimit)) || math.IsInf(float64(in.SupplyLimit), 0) || in.SupplyLimit < 0 {
		in.SupplyLimit = 0
	}
	demand := in.Demand
	if dt <= 0 {
		*res = TickResult{Demand: demand, Dead: c.dead}
		return
	}
	if c.dead {
		c.now += dt
		*res = TickResult{Demand: demand, Dead: true, RoomTemp: c.room.Temperature()}
		return
	}
	c.now += dt

	// Burst event bookkeeping.
	if demand > 1 {
		if !c.burstActive {
			c.burstActive = true
			c.sprintTime = 0
			c.peakDemand = demand
			c.degreeSum, c.degreeTicks = 0, 0
			c.budgetTotal = EstimateBudget(c.tree, c.tank, c.cfg.Cooling, c.cfg.Reserve)
			c.emit(EventBurstStarted, burstDetail(demand, c.budgetTotal))
		}
		if demand > c.peakDemand {
			c.peakDemand = demand
		}
		c.cooloff = 0
	} else if c.burstActive {
		c.cooloff += dt
		if c.cooloff >= DefaultBurstCooloff {
			c.burstActive = false
			c.budgetTotal = 0
			c.tesActive = false
			c.emit(EventBurstEnded, "")
		}
	}

	// The tick's length in seconds, for every energy and rate below.
	secs := dt.Seconds()
	if c.cfg.Uncontrolled {
		c.tickUncontrolled(demand, dt, secs, res)
		return
	}

	// Generator dispatch policy: start on any curtailment below the
	// normal facility peak, stop once the grid recovers.
	if c.gen != nil {
		normalTotal := c.tree.PeakNormalIT() + c.cfg.Cooling.NormalCoolingPower()
		switch {
		case in.SupplyLimit > 0 && in.SupplyLimit < normalTotal:
			c.gen.RequestStart()
		case c.gen.Started():
			c.gen.Stop()
		}
		if started := c.gen.Started(); started != c.prevGenStart {
			if started {
				c.emit(EventGeneratorStarted, "cranking")
			} else {
				c.emit(EventGeneratorStopped, "grid recovered")
			}
			c.prevGenStart = started
		}
		if online := c.gen.Online(); online != c.prevGenOnline {
			if online {
				c.emit(EventGeneratorOnline, "")
			}
			c.prevGenOnline = online
		}
	}

	// Supervision: cross-check the sensor plane, build this tick's
	// planning view, and ramp the degraded-mode degree cap.
	if c.sensors != nil {
		c.supervise(dt)
	}

	bound, capCores := c.bound, c.capCores
	if !c.constBound {
		bound = units.Clamp(c.cfg.Strategy.UpperBound(c.state(demand)), 1, c.maxDegree)
		capCores = c.cfg.Server.CoresForDegree(bound)
	}
	if c.sensors != nil && bound > c.degradeCap {
		bound = c.degradeCap
		capCores = c.cfg.Server.CoresForDegree(bound)
	}
	if chipCap := c.chipCoreCap(); capCores > chipCap {
		capCores = chipCap
	}

	// Find the largest safe global core cap. The inner planner already
	// sheds load group-by-group under power constraints; the cap search
	// mainly serves the thermal guard, which needs a global reduction. The
	// normal-core plan is within every rating by construction, so the
	// forced fallback only triggers when a breaker has been stressed by an
	// external event.
	c.prepare(in, dt, secs)
	p := c.searchCap(capCores, in, secs)
	if p == nil {
		p, _ = c.plan(c.cfg.Server.NormalCores, in, secs, true)
	}
	c.commit(p, in, bound, dt, secs, res)
}

// searchCap returns the plan at the largest cap in [NormalCores, capCores]
// whose plan is feasible, or nil when none is. Feasibility is monotone in
// the cap: fewer cores mean less power and less heat. The answer rarely
// moves between ticks, so the search probes the last answer's successor
// h+1 first and, if that fails, h itself, then bisects only inside the
// bracket those probes leave; by monotonicity it returns exactly what a
// full bisection of the range would. Every probe builds into the same
// scratch plan, so the search plans again only when its last probe was not
// the answer.
func (c *Controller) searchCap(capCores int, in Input, secs float64) *plan {
	lo, hi := c.cfg.Server.NormalCores, capCores
	h := c.buf.capHint
	if h < 0 || h >= capCores {
		h = capCores - 1 // cold, or the cap fell: probe the cap itself first
	}
	best, lastOK := -1, false
	for n, first := h+1, true; lo <= hi; first = false {
		_, lastOK = c.plan(n, in, secs, false)
		if lastOK {
			best, lo = n, n+1
		} else {
			hi = n - 1
		}
		if first && !lastOK {
			n = h
		} else {
			n = (lo + hi) / 2
		}
	}
	c.buf.capHint = best
	if c.buf.onSearch != nil {
		c.buf.onSearch(capCores, in, secs, best)
		lastOK = false // the hook's probes overwrote the scratch plan
	}
	if best < 0 {
		return nil
	}
	if !lastOK {
		p, _ := c.plan(best, in, secs, false)
		return p
	}
	return &c.buf.built
}

// prepare builds the tick's plan context (see planContext). It runs after
// supervision, so the battery limits follow the sensed state of charge
// when a sensor plane is attached.
func (c *Controller) prepare(in Input, dt time.Duration, secs float64) {
	ctx := &c.buf.ctx
	ctx.supply = 0
	ctx.dcAllow = c.tree.DCBreaker.MaxLoadFor(c.cfg.Reserve)
	if in.SupplyLimit > 0 {
		ctx.supply = in.SupplyLimit
		if c.gen != nil {
			ctx.supply += c.gen.Available(dt)
		}
		if ctx.supply < ctx.dcAllow {
			ctx.dcAllow = ctx.supply
		}
	}
	c.partition(in.Demand)
	var lastB *breaker.Breaker
	var lastU *ups.Battery
	for g, last := 0, -1; g < len(ctx.runs); last, g = g, ctx.runs[g] {
		// A run's bounds are computed once, or copied from the run before
		// when its breaker or battery bounds alike.
		b, u := c.tree.Run(g)
		if last >= 0 && b.SameMaxLoad(lastB) {
			ctx.pduMax[g] = ctx.pduMax[last]
		} else {
			ctx.pduMax[g] = b.MaxLoadFor(c.cfg.Reserve)
		}
		switch {
		case c.sensors != nil:
			ctx.upsMax[g] = u.MaxOutputAtSoC(c.view.soc[g], secs)
		case last >= 0 && u.SameMaxOutput(lastU):
			ctx.upsMax[g] = ctx.upsMax[last]
		default:
			ctx.upsMax[g] = u.MaxOutput(secs)
		}
		lastB, lastU = b, u
	}
}

// partition sets the tick's demand rows and lockstep runs at the given
// facility demand, and gives each run's first group its class's row.
func (c *Controller) partition(demand float64) {
	c.buildRows(demand)
	ctx := &c.buf.ctx
	ctx.runs = c.tree.Partition(ctx.classes)
	for g, k := 0, 0; g < len(ctx.runs); g = ctx.runs[g] {
		for ctx.classes[k] <= g {
			k = ctx.classes[k]
		}
		ctx.rowOf[g] = ctx.rowOf[k]
	}
}

// buildRows sets each class's demand row at the given facility demand. A
// row is a pure function of its demand and the read-only server model, so
// a row whose demand has not changed since the last tick is kept as it is.
func (c *Controller) buildRows(demand float64) {
	ctx := &c.buf.ctx
	n := 0
	for g := 0; g < len(ctx.classes); g = ctx.classes[g] {
		d := demand * c.weights[g]
		r := 0
		for r < n && ctx.rows[r].demand != d {
			r++
		}
		if r == n {
			switch {
			case n == len(ctx.rows):
				ctx.rows = append(ctx.rows, newDemandRow(c.srv, d))
				c.buf.demandPows++
			case math.Float64bits(ctx.rows[n].demand) != math.Float64bits(d):
				ctx.rows[n] = newDemandRow(c.srv, d)
				c.buf.demandPows++
			}
			n++
		}
		ctx.rowOf[g] = r
	}
	ctx.rows = ctx.rows[:n]
}

// newDemandRow computes a group demand's tick-invariant terms.
func newDemandRow(srv *server.Model, d float64) demandRow {
	row := demandRow{demand: d, pow: srv.DemandPow(d)}
	row.want = srv.CoresForThroughputPow(d, row.pow)
	if row.want < srv.NormalCores {
		row.want = srv.NormalCores
	}
	row.perServer, row.delivered = srv.PowerAtDemandPow(row.want, d, row.pow)
	return row
}

// operatingPoint returns PowerAtDemand(n, rows[r].demand) for n at most
// rows[r].want.
func (ctx *planContext) operatingPoint(srv *server.Model, r, n int) (units.Watts, float64) {
	ctx.points++
	row := &ctx.rows[r]
	if n == row.want {
		return row.perServer, row.delivered
	}
	return srv.PowerAtDemandPow(n, row.demand, row.pow)
}

// descend cuts gp to the most cores below gp.cores whose group power fits
// afford, or to NormalCores when none does: where dropping one core at a
// time would stop. Below the row's want every count is saturated, so the
// group power reads server.Model's saturated-power table, which rises
// strictly with the count; bisecting it finds that stop exactly
// (TestDescentMatchesLinearScan). descend returns the number of operating
// points it evaluated.
func (ctx *planContext) descend(srv *server.Model, gp *groupPlan, afford, groupSize units.Watts) int {
	evals := 0
	lo, hi := srv.NormalCores, gp.cores-1 // the stop lies in [lo, hi]
	for lo < hi {
		mid := (lo + hi + 1) / 2
		p, _ := ctx.operatingPoint(srv, gp.row, mid)
		evals++
		if p*groupSize > afford+1e-9 {
			hi = mid - 1
		} else {
			lo = mid
		}
	}
	gp.cores = lo
	gp.perServer, gp.delivered = ctx.operatingPoint(srv, gp.row, lo)
	return evals + 1
}

// plan builds a tick plan with every group's core count capped at capCores
// into the scratch plan and returns it. When force is false the plan is
// rejected (ok = false) if any constraint cannot be met; when force is true
// the plan clamps to whatever the stores can deliver and lets the breakers
// carry the remainder.
func (c *Controller) plan(capCores int, in Input, secs float64, force bool) (*plan, bool) {
	c.buf.plans++
	srv := c.srv
	ctx := &c.buf.ctx
	runs := ctx.runs
	groupSize := c.groupSize
	nPDU := c.tree.Groups()

	// Per-group demand and desired operating point, and the heat they
	// dissipate. Every stage below works on the first group of each
	// lockstep run only, which speaks for the run's other members. A sum
	// still adds each member in group order, so it rounds as a walk over
	// every group does.
	groups := c.buf.groups
	sprinting := false
	var gen units.Watts
	for g, last := 0, -1; g < nPDU; last, g = g, runs[g] {
		r := ctx.rowOf[g]
		if last >= 0 && r == ctx.rowOf[last] {
			groups[g] = groups[last] // one demand row, one operating point
		} else {
			cores := ctx.rows[r].want
			if cores > capCores {
				cores = capCores
			}
			perServer, delivered := ctx.operatingPoint(srv, r, cores)
			groups[g] = groupPlan{row: r, cores: cores, perServer: perServer, delivered: delivered}
			if cores > srv.NormalCores {
				sprinting = true
			}
		}
		heat := groups[g].perServer * groupSize
		for m := g; m < runs[g]; m++ {
			gen += heat
		}
	}

	coolNormal := c.cfg.Cooling.NormalCoolingPower()

	// A supply emergency: the curtailed grid plus the generator cannot
	// carry the facility. The TES then rides the emergency regardless of
	// sprinting, shedding 2/3 of the chiller power.
	supplyShort := in.SupplyLimit > 0 && ctx.supply < gen+coolNormal

	// Phase 3 decision: the TES engages once the sprint has run long
	// enough that the room would otherwise approach the CFD budget — or
	// immediately in a supply emergency — and stays engaged until the
	// tank is spent or the need passes. With sensors attached the planner
	// believes the (supervised) sensed level, not the model's internals.
	tesEmpty := c.tank == nil || c.tank.Empty()
	if c.sensors != nil && c.tank != nil {
		tesEmpty = c.view.tesLevel <= 0
	}
	tesOn := sprinting && c.tesActive
	if sprinting && !tesOn && c.tank != nil && !tesEmpty && c.sprintTime >= c.tesDelay {
		tesOn = true
	}
	if !tesOn && supplyShort && c.tank != nil && !tesEmpty {
		tesOn = true
	}
	if c.tank == nil || tesEmpty {
		tesOn = false
	}
	var chillerElec, chillerAbsorb, tesAbsorb units.Watts
	if tesOn {
		tesAbsorb = gen
		max := c.tank.MaxAbsorb(secs)
		if c.sensors != nil {
			max = c.tank.MaxAbsorbAtSoC(c.view.tesLevel, secs)
		}
		if tesAbsorb > max {
			tesAbsorb = max
		}
		chillerElec = c.tank.ChillerPowerWhileDischarging(coolNormal)
	} else {
		chillerElec = coolNormal
		chillerAbsorb = gen
		if cap := c.chillerCap(); chillerAbsorb > cap {
			chillerAbsorb = cap
		}
	}
	heatAbsorbed := chillerAbsorb + tesAbsorb

	// Thermal guard: never commit to a heat gap that would overheat the
	// room within the guard window. The guard is evaluated against the
	// supervised planning temperature when sensors are attached, so a
	// lying room sensor cannot relax it.
	planTemp := c.room.Temperature()
	if c.sensors != nil {
		planTemp = c.view.roomTemp
	}
	thermalShed := false
	if gap := gen - heatAbsorbed; gap > 0 && !force {
		if t, finite := c.cfg.Cooling.TimeToThresholdFrom(planTemp, gap); finite && t < DefaultThermalGuard {
			if sprinting {
				// Let the core-cap descent shrink the gap first.
				return nil, false
			}
			// Even the normal operating point out-heats the (degraded)
			// plant. Shed load so the residual gap keeps the room below
			// the threshold for at least the guard window: allow only the
			// gap that consumes the remaining margin no faster than
			// margin/guard.
			margin := float64(c.cfg.Cooling.Threshold - planTemp)
			if margin < 0 {
				margin = 0
			}
			allowed := units.Watts(margin * c.cfg.Cooling.ThermalCapacity / DefaultThermalGuard.Seconds())
			if budget := heatAbsorbed + allowed; budget < gen {
				scale := float64(budget) / float64(gen)
				for g := 0; g < nPDU; g = runs[g] {
					gp := &groups[g]
					target := gp.perServer * units.Watts(scale)
					shed := srv.DemandForPower(gp.cores, target)
					if shed < gp.delivered {
						gp.delivered = shed
						gp.perServer, _ = srv.PowerAtDemand(gp.cores, shed)
						ctx.points++
					}
				}
				gen = groupHeat(groups, runs, groupSize)
				thermalShed = true
				if tesOn {
					if tesAbsorb > gen {
						tesAbsorb = gen
					}
				} else {
					chillerAbsorb = gen
					if cap := c.chillerCap(); chillerAbsorb > cap {
						chillerAbsorb = cap
					}
				}
				heatAbsorbed = chillerAbsorb + tesAbsorb
			}
		}
	}

	// DC level first: the utility feed and the DC breaker bound the total
	// breaker-drawn server power; water-fill it across the groups'
	// breaker-share wants (§V-B parent/child coordination — overloading
	// child breakers never exceeds the parent's managed bound).
	dcAllow := ctx.dcAllow
	serverBudget := dcAllow - chillerElec
	if serverBudget < 0 {
		serverBudget = 0
	}
	wants := c.buf.wants
	for g := 0; g < nPDU; g = runs[g] {
		need := groups[g].perServer * groupSize
		if bound := ctx.pduMax[g]; need < bound {
			wants[g] = need
		} else {
			wants[g] = bound
		}
	}
	cbAlloc := breaker.AllocateInto(c.buf.alloc, c.buf.allocIdx, runs, serverBudget, wants)

	// PDU level: whatever the breaker share cannot carry rides the UPS;
	// a group whose battery cannot cover the difference sheds cores. The
	// plan is assembled field by field in the scratch plan, which a
	// literal would build aside and copy.
	p := &c.buf.built
	flow := &p.flow
	flow.PDUServer, flow.PDUUPS, flow.Cooling, flow.Runs = c.buf.flowServer, c.buf.flowUPS, chillerElec, runs
	// A cut depends only on the group's operating point and its budget, so
	// a group that starts where the last cut group started, with the same
	// budget, takes that cut: alike groups are cut once. The same pass
	// totals the groups' final operating points.
	var cutFrom, cut groupPlan
	cutAfford := units.Watts(math.NaN()) // equal to no budget: no cut yet
	var deliveredSum, degreeSum float64
	var heatGen units.Watts
	maxCores := 0
	for g := 0; g < nPDU; {
		gp := &groups[g]
		upsMax := ctx.upsMax[g]
		afford := cbAlloc[g] + upsMax
		need := gp.perServer * groupSize
		if need > afford+1e-9 && gp.cores > srv.NormalCores {
			if *gp == cutFrom && afford == cutAfford {
				*gp = cut
			} else {
				cutFrom, cutAfford = *gp, afford
				c.buf.descentSteps += ctx.descend(srv, gp, afford, groupSize)
				cut = *gp
			}
			need = gp.perServer * groupSize
		}
		if need > afford+1e-9 {
			// Load shedding, the true last resort (§V-A's admission
			// control): even the normal operating point exceeds the
			// deliverable power, so the group serves only what the
			// affordable budget carries rather than stressing a breaker.
			shed := srv.DemandForPower(gp.cores, afford/groupSize)
			if shed < ctx.rows[gp.row].demand {
				gp.delivered = shed
				gp.perServer, _ = srv.PowerAtDemand(gp.cores, shed)
				ctx.points++
				need = gp.perServer * groupSize
			}
		}
		if need > afford+1e-9 && !force {
			// Not even an idle server fits the budget: a blackout no
			// shedding can avoid.
			return nil, false
		}
		ups := need - cbAlloc[g]
		if ups < 0 {
			ups = 0
		}
		if ups > upsMax {
			ups = upsMax // force mode: the breakers carry the shortfall
		}
		degree := srv.Degree(gp.cores)
		maxCores = max(maxCores, gp.cores)
		flow.PDUServer[g], flow.PDUUPS[g] = need, ups
		for end := runs[g]; g < end; g++ {
			deliveredSum += gp.delivered
			degreeSum += degree
			heatGen += need // gp.perServer * groupSize
		}
	}

	// Assemble the result from the (possibly reduced) groups.
	p.chillerElec, p.chillerAbsorb, p.tesAbsorb, p.tesOn = chillerElec, chillerAbsorb, tesAbsorb, tesOn
	p.heatAbsorbed, p.thermalShed, p.heatGen = heatAbsorbed, thermalShed, heatGen
	p.delivered, p.meanDegree = deliveredSum/float64(nPDU), degreeSum/float64(nPDU)
	p.maxCores, p.sprinting = maxCores, maxCores > srv.NormalCores
	p.upsRecharge, p.tesRecharge = nil, 0
	// Recompute the absorption for the possibly reduced heat: the chiller
	// only removes what exists, and the tank must not drain faster than
	// the servers actually dissipate.
	if p.tesOn {
		if p.tesAbsorb > p.heatGen {
			p.tesAbsorb = p.heatGen
		}
		p.chillerAbsorb = 0
		p.heatAbsorbed = p.tesAbsorb
	} else {
		chillerAbsorb = p.heatGen
		if cap := c.chillerCap(); chillerAbsorb > cap {
			chillerAbsorb = cap
		}
		p.chillerAbsorb = chillerAbsorb
		p.heatAbsorbed = chillerAbsorb
	}

	// Idle headroom recharges the stores (the paper: "the used battery
	// capacity can be recharged later when the power demand is low").
	if !p.sprinting && in.Demand <= 0.98 {
		c.planRecharge(p, dcAllow, secs)
	}
	return p, true
}

// rechargeHook, set only by tests, sees each recharge plan before the tick
// commits it.
var rechargeHook func(c *Controller, p *plan, dcSpare units.Watts, secs float64)

// planRecharge adds UPS and TES recharge within the breaker ratings and the
// available supply. A group's cap is its PDU's spare, capped at what fills
// its battery this tick. If the caps overrun the DC spare, each group takes
// the same fraction of its cap, so identical groups stay identical, and the
// TES takes nothing; otherwise the TES takes what the caps leave.
func (c *Controller) planRecharge(p *plan, dcAllow units.Watts, secs float64) {
	limit := c.tree.DCBreaker.Rated
	if dcAllow < limit {
		limit = dcAllow
	}
	dcSpare := limit - p.flow.DCLoad()
	if dcSpare <= 0 {
		return
	}
	p.upsRecharge = c.buf.upsRecharge
	runs, rech := p.flow.Runs, p.upsRecharge
	left, total := dcSpare, units.Watts(0)
	for g := 0; g < len(runs); g = runs[g] {
		b, u := c.tree.Run(g)
		room := u.TotalEnergy() - u.Stored()
		cap := max(0, min(b.Rated-p.flow.PDULoad(g), room.Over(secs)))
		rech[g] = cap
		for m := g; cap > 0 && m < runs[g]; m++ { // a full battery or PDU takes nothing
			left -= cap
			total += cap
		}
	}
	if left < 0 {
		// Rounding in total, the quotient, each share and the n additions
		// summing the shares can put the sum up to about 2n parts in 2^53
		// over the spare. A scale (2n+2) parts in 2^53 below dcSpare/total
		// fits, so the ulp steps, each a pass over the groups, only guard it.
		margin := 1 - float64(2*len(rech)+2)*0x1p-53
		scale := units.Watts(min(1, float64(dcSpare/total)) * margin)
		for ; ; scale = units.Watts(math.Nextafter(float64(scale), 0)) {
			var sum units.Watts
			for g := 0; g < len(runs); g = runs[g] {
				for m, share := g, rech[g]*scale; m < runs[g]; m++ {
					sum += share
				}
			}
			if sum <= dcSpare {
				break
			}
		}
		for g := 0; g < len(runs); g = runs[g] {
			rech[g] *= scale
		}
		left = 0
	}
	if c.tank != nil && left > 0 && c.tank.SoC() < 1 {
		// Re-cooling the tank costs chiller power proportional to the
		// plant's heat-to-electric ratio.
		perHeat := float64(c.cfg.Cooling.NormalCoolingPower()) / float64(c.cfg.Cooling.ChillerHeatCapacity())
		if perHeat > 0 {
			p.tesRecharge = units.Watts(float64(left) / perHeat)
		}
	}
	if rechargeHook != nil {
		rechargeHook(c, p, dcSpare, secs)
	}
}

// commit executes a plan: steps the breakers, batteries, tank and room,
// accumulates burst bookkeeping and the energy split, and reports the tick
// under the strategy's bound in res.
func (c *Controller) commit(p *plan, in Input, bound float64, dt time.Duration, secs float64, res *TickResult) {
	demand := in.Demand
	flow := &p.flow

	// Apply recharge loads before stepping the breakers.
	coolingPower := p.chillerElec
	if p.tesRecharge > 0 && c.tank != nil {
		perHeat := float64(c.cfg.Cooling.NormalCoolingPower()) / float64(c.cfg.Cooling.ChillerHeatCapacity())
		accepted := c.tank.Recharge(p.tesRecharge, secs)
		coolingPower += units.Watts(float64(accepted) * perHeat)
	}
	flow.Cooling = coolingPower
	runs := flow.Runs
	for g := 0; g < len(p.upsRecharge); g = runs[g] {
		if req := p.upsRecharge[g]; req != 0 { // a battery planned no recharge accepts none
			// The run's members got one request: its battery takes it
			// for all of them.
			_, batt := c.tree.Run(g)
			flow.PDUServer[g] += batt.Recharge(req, secs) // recharge draw rides the PDU feed
		}
	}

	// Energy-split accounting. The same pass sums the DC load, in
	// Flow.DCLoad's order, for every reader below.
	var dcLoad, upsTotal, maxPDULoad units.Watts
	for g := 0; g < len(runs); {
		end := runs[g]
		ups, load := flow.PDUUPS[g], flow.PDULoad(g)
		if load > maxPDULoad {
			maxPDULoad = load
		}
		b, _ := c.tree.Run(g)
		over := load - b.Rated
		var overE units.Joules
		if over > 0 {
			overE = units.ForDuration(over, secs)
		}
		for ; g < end; g++ {
			upsTotal += ups
			dcLoad += load
			if over > 0 {
				c.split.CBOverload += overE
			}
		}
	}
	dcLoad += flow.Cooling
	if over := dcLoad - c.tree.DCBreaker.Rated; over > 0 {
		c.split.CBOverload += units.ForDuration(over, secs)
	}
	c.split.UPS += units.ForDuration(upsTotal, secs)
	if p.tesOn {
		saved := c.cfg.Cooling.NormalCoolingPower() - p.chillerElec
		if saved > 0 {
			c.split.TES += units.ForDuration(saved, secs)
		}
	}

	// The generator carries the share of the load the curtailed grid
	// cannot; Step also advances its crank/ramp clock.
	var genUsed units.Watts
	if c.gen != nil {
		var want units.Watts
		if in.SupplyLimit > 0 {
			if short := dcLoad - in.SupplyLimit; short > 0 {
				want = short
			}
		}
		genUsed = c.gen.Step(want, dt)
	}

	err := c.tree.Step(flow, secs)
	// Discharge the tank before stepping the room: the room must see the
	// absorption that actually happened (a stuck valve or leaked tank
	// delivers less than the plan assumed), so a faulted store shows up
	// as heat, not as phantom cooling.
	var tesRate units.Watts
	if p.tesAbsorb > 0 && c.tank != nil {
		tesRate = c.tank.Discharge(p.tesAbsorb, secs)
	}
	// The cooling the controller commanded versus the cooling that arrived
	// is the one actuation it can verify directly (supply/return delta in a
	// real loop). A shortfall means a stuck valve or a lying level sensor;
	// either way the tank cannot be planned on, so distrust it immediately —
	// the frozen-level detector alone would take DefaultFreezeLimit, and in
	// phase 3 the chiller is already shed, so that latency costs real heat.
	if c.sup != nil && !c.sup.tes.distrusted && p.tesAbsorb > 1 && tesRate < p.tesAbsorb-1 {
		c.judge(&c.sup.tes, faults.Reading{Value: c.sup.tes.last, OK: c.sup.tes.haveLast},
			fmt.Sprintf("actuation shortfall: commanded %v, delivered %v", p.tesAbsorb, tesRate))
	}
	actualAbsorbed := p.chillerAbsorb + tesRate
	c.room.Step(p.heatGen, actualAbsorbed, dt)
	// Advance the heat-balance dead reckoning with the same numbers the
	// room integrated; the thermal guard plans on max(estimate, trusted
	// sensed value), so a lying sensor can only tighten it.
	c.tempEst += units.Celsius(float64(p.heatGen-actualAbsorbed) * secs / c.cfg.Cooling.ThermalCapacity)
	if c.tempEst < c.cfg.Cooling.Ambient {
		c.tempEst = c.cfg.Cooling.Ambient
	}
	if c.chip != nil {
		// Track the hottest chip: the largest per-server chip power of
		// the tick (server power minus the constant non-CPU share).
		var hottest units.Watts
		group := c.groupSize
		for g := 0; g < len(runs); g = runs[g] {
			perServer := flow.PDUServer[g] / group
			if chipPower := perServer - c.cfg.Server.NonCPUPower; chipPower > hottest {
				hottest = chipPower
			}
		}
		c.chip.Step(hottest, dt)
	}
	c.tesActive = p.tesOn && c.tank != nil && !c.tank.Empty()

	// Physical supply enforcement: a forced plan that draws more than the
	// grid and generator can deliver browns the facility out.
	if err == nil && in.SupplyLimit > 0 && dcLoad > in.SupplyLimit+genUsed+1 {
		err = fmt.Errorf("core: brownout: load %v exceeds supply %v + generator %v",
			dcLoad, in.SupplyLimit, genUsed)
	}

	// Burst bookkeeping: sprint time and average degree accumulate over
	// over-capacity ticks.
	if c.burstActive && demand > 1 {
		c.sprintTime += dt
		c.degreeSum += p.meanDegree
		c.degreeTicks++
	}

	phase := 0
	switch {
	case p.tesOn:
		phase = 3
	case upsTotal > 0 && p.sprinting:
		phase = 2
	case p.sprinting:
		phase = 1
	}

	// Cleared and filled in place: a literal would be built aside and
	// copied.
	*res = TickResult{}
	res.Demand, res.Delivered, res.ActiveCores, res.Degree = demand, p.delivered, p.maxCores, p.meanDegree
	res.Bound, res.Phase, res.ITPower, res.CoolingPower = bound, phase, p.heatGen, coolingPower
	res.DCLoad, res.PDULoad, res.UPSPower, res.GenPower = dcLoad, maxPDULoad, upsTotal, genUsed
	res.TESHeatRate, res.RoomTemp = tesRate, c.room.Temperature()
	if err != nil {
		// A trip under the controller indicates the reserve was breached
		// by an external event; the facility sheds load and the run ends.
		res.Tripped = true
		res.Delivered = 0
		c.dead = true
		res.Dead = true
	} else if c.room.Overheated() {
		// The room reaching the shutdown threshold forces an automatic IT
		// shutdown. The thermal guard plans away from this; reaching it
		// means the plant degraded faster than any plan could shed.
		res.Delivered = 0
		c.dead = true
		res.Dead = true
	}

	// Transition events.
	if phase != c.prevPhase {
		c.emitEvent(Event{
			Time:   c.now,
			Kind:   EventPhaseChanged,
			Detail: phaseDetail(c.prevPhase, phase),
			From:   c.prevPhase,
			To:     phase,
		})
		c.prevPhase = phase
	}
	if c.tesActive != c.prevTES {
		if c.tesActive {
			c.emit(EventTESActivated, fmt.Sprintf("tank %.0f%% full", 100*c.tank.SoC()))
		} else if c.tank != nil && c.tank.Empty() {
			c.emit(EventTESExhausted, "")
		}
		c.prevTES = c.tesActive
	}
	if c.chip != nil && !c.chipExhausted && c.chip.Exhausted() {
		c.chipExhausted = true
		c.emit(EventChipPCMExhausted, "chip-level sprinting no longer sustainable")
	}
	if p.thermalShed != c.prevShed {
		if p.thermalShed {
			c.emit(EventThermalShed, "plant cannot absorb normal heat; shedding load")
		}
		c.prevShed = p.thermalShed
	}
	c.prevSprinting = p.sprinting
	if c.sup != nil {
		c.sup.noteExpectations(p, actualAbsorbed, c.tempEst, c.cfg.Cooling.Ambient)
	}
	if res.Dead {
		switch {
		case err == nil:
			c.emit(EventOverheated, fmt.Sprintf("room at %v", c.room.Temperature()))
		case in.SupplyLimit > 0 && dcLoad > in.SupplyLimit+genUsed:
			c.emit(EventBrownout, err.Error())
		default:
			c.emit(EventBreakerTripped, err.Error())
		}
	}
}

// tickUncontrolled implements the Fig 8(a) baseline: chip-level sprinting
// with no data-center-level control — cores follow demand, all power flows
// through the breakers, the chiller is never helped, and the first trip
// shuts the facility down.
func (c *Controller) tickUncontrolled(demand float64, dt time.Duration, secs float64, res *TickResult) {
	srv := c.srv
	groupSize := c.groupSize
	coolNormal := c.cfg.Cooling.NormalCoolingPower()

	nPDU := c.tree.Groups()
	c.partition(demand)
	ctx := &c.buf.ctx
	flow := &power.Flow{
		PDUServer: c.buf.flowServer,
		PDUUPS:    c.buf.flowUPS,
		Cooling:   coolNormal,
		Runs:      ctx.runs,
	}
	clear(flow.PDUUPS) // uncontrolled: nothing rides the batteries
	var heatGen, maxPDULoad units.Watts
	var deliveredSum, degreeSum float64
	maxCores := 0
	for g := 0; g < nPDU; {
		// Cores follow demand: each group runs at its demand row's want.
		row := &ctx.rows[ctx.rowOf[g]]
		n := row.want
		group := row.perServer * groupSize
		degree := srv.Degree(n)
		if n > maxCores {
			maxCores = n
		}
		if group > maxPDULoad {
			maxPDULoad = group
		}
		flow.PDUServer[g] = group
		for end := ctx.runs[g]; g < end; g++ {
			heatGen += group
			deliveredSum += row.delivered
			degreeSum += degree
		}
	}
	chillerAbsorb := heatGen
	if cap := c.chillerCap(); chillerAbsorb > cap {
		chillerAbsorb = cap
	}

	err := c.tree.Step(flow, secs)
	c.room.Step(heatGen, chillerAbsorb, dt)

	*res = TickResult{
		Demand:       demand,
		Delivered:    deliveredSum / float64(nPDU),
		ActiveCores:  maxCores,
		Degree:       degreeSum / float64(nPDU),
		Bound:        c.maxDegree,
		ITPower:      heatGen,
		CoolingPower: coolNormal,
		DCLoad:       flow.DCLoad(),
		PDULoad:      maxPDULoad,
		RoomTemp:     c.room.Temperature(),
	}
	if maxCores > srv.NormalCores {
		res.Phase = 1
	}
	if err != nil || c.room.Overheated() {
		res.Tripped = err != nil
		res.Delivered = 0
		c.dead = true
		res.Dead = true
		if err != nil {
			c.emit(EventBreakerTripped, err.Error())
		} else {
			c.emit(EventOverheated, "room overheated")
		}
	}
}
