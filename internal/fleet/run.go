package fleet

import (
	"context"
	"fmt"
	"time"

	"dcsprint/internal/sim"
)

// simDC is one simulated data centre of the fleet: its profile, its
// engine, its ledger feed and its per-run accounting.
type simDC struct {
	profile Profile
	eng     *sim.Engine
	// plant is the engine's probe after its last step, read once per tick
	// after every DC has stepped; it is meaningful once eng.Tick() > 0.
	plant sim.PlantSample

	admitted  int // active load units placed here
	bursts    int // lifetime bursts served (incl. spilled-in)
	spilledIn int

	maxStress float64
	minMargin float64
	minUPS    float64
	tripped   bool
	dead      bool
}

// ledger derives the DC's current capacity ledger.
func (d *simDC) ledger() Ledger {
	l := FreshLedger(d.profile.ID, d.admitted, d.profile.AdmitCap)
	if d.eng.Tick() > 0 {
		l.Fold(LedgerOf(d.profile.ID, d.plant))
	}
	l.Dead = d.dead
	return l
}

// Fleet is the simulation fleet: N engines stepped in lockstep under a
// burst schedule, with the router deciding placement between ticks.
type Fleet struct {
	spec     Spec
	profiles []Profile
	dcs      []*simDC
	router   *Router
}

// New builds a fleet from spec: one engine per DC profile, streaming
// scenarios (no demand trace — the run loop supplies demand every tick).
func New(spec Spec) (*Fleet, error) {
	profiles, err := spec.Profiles()
	if err != nil {
		return nil, err
	}
	spec.fill()
	f := &Fleet{
		spec:     spec,
		profiles: profiles,
		dcs:      make([]*simDC, len(profiles)),
		router: NewRouter(RouterConfig{
			Seed:     spec.Seed,
			Replicas: spec.Replicas,
			HopRTT:   spec.HopRTT,
			HopCost:  spec.HopCost,
		}),
	}
	for i, p := range profiles {
		eng, err := sim.New(sim.Scenario{
			Name:       p.ID,
			Servers:    p.Servers,
			DCHeadroom: p.Headroom,
			TESMinutes: p.TESMinutes,
			BatteryAh:  p.BatteryAh,
		})
		if err != nil {
			return nil, fmt.Errorf("fleet: building %s: %w", p.ID, err)
		}
		f.dcs[i] = &simDC{profile: p, eng: eng, minMargin: 1e9, minUPS: 1}
	}
	return f, nil
}

// Profiles returns the fleet's DC profiles.
func (f *Fleet) Profiles() []Profile { return f.profiles }

// RunOptions tunes one fleet run.
type RunOptions struct {
	// Coordinated enables the router: exhausted-ledger spills, admission
	// control, replica placement. False is the paper-baseline ablation —
	// every burst sprints on its home DC no matter what.
	Coordinated bool
}

// servedFloor is the mean delivered/required ratio above which a burst
// counts as survived: the serving DC actually powered the work.
const servedFloor = 0.95

// DCResult is one DC's slice of a fleet Result.
type DCResult struct {
	ID               string
	Servers          int
	Bursts           int
	SpilledIn        int
	MaxBreakerStress float64
	MinThermalC      float64
	MinUPSSoC        float64
	Tripped          bool
	Dead             bool
}

// Result is one fleet run's outcome.
type Result struct {
	// Coordinated records which policy ran.
	Coordinated bool
	// DCs and Bursts size the run.
	DCs    int
	Bursts int
	// Survived counts bursts whose mean delivered/required ratio over
	// their window was at least the served floor.
	Survived int
	// Rejected counts bursts the router admitted nowhere.
	Rejected int
	// Spilled counts bursts served away from their home DC.
	Spilled int
	// TransferLatency and TransferCost total the spills' inter-DC moves.
	TransferLatency time.Duration
	TransferCost    float64
	// WorstBreakerStress and WorstThermalMarginC are fleet-wide extremes
	// across the whole run; MinUPSSoC likewise.
	WorstBreakerStress  float64
	WorstThermalMarginC float64
	MinUPSSoC           float64
	// MeanServedRatio averages delivered/required over every burst.
	MeanServedRatio float64
	// PerDC breaks the run down by data centre, in DC order.
	PerDC []DCResult
	// Placements is the router's full decision log, in burst order.
	Placements []Placement
}

// burstState tracks one scheduled burst through the run.
type burstState struct {
	b       Burst
	serving int // DC index, -1 when rejected
	start   int // first served tick (arrival + transfer latency)
	end     int
	ratioN  int
	ratio   float64 // Σ delivered/required over served ticks
}

// Run executes the schedule over the fleet and seals every engine.
// Deterministic: for a fixed spec the Result and the placement log are
// bit-identical across reruns. The DCs step serially in DC order; callers
// that want parallelism fan out over whole runs (E16 sweeps its seeds).
func (f *Fleet) Run(ctx context.Context, opts RunOptions) (*Result, error) {
	schedule, err := f.spec.Schedule()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Coordinated: opts.Coordinated,
		DCs:         len(f.dcs),
		Bursts:      len(schedule),
	}
	// Transfer latency is wall-network time; at one-second ticks any
	// sub-second RTT rounds up to one tick of delayed service.
	latencyTicks := func(d time.Duration) int {
		if d <= 0 {
			return 0
		}
		t := int((d + time.Second - 1) / time.Second)
		if t < 1 {
			t = 1
		}
		return t
	}
	bursts := make([]*burstState, len(schedule))
	for i, b := range schedule {
		bursts[i] = &burstState{b: b, serving: -1}
	}
	ledgers := make([]Ledger, len(f.dcs))
	demands := make([]float64, len(f.dcs))
	for tick := 0; tick < f.spec.Ticks; tick++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Admission: route the bursts arriving this tick, in schedule
		// order, against the ledgers as of the last tick.
		for i, st := range bursts {
			if st.b.At != tick {
				continue
			}
			var p Placement
			if opts.Coordinated {
				for j, d := range f.dcs {
					ledgers[j] = d.ledger()
				}
				p = f.router.Place(fmt.Sprintf("burst-%d", i), st.b.Home, ledgers)
			} else {
				// Independent per-DC sprinting: home serves, always.
				p = Placement{
					Key:     fmt.Sprintf("burst-%d", i),
					Home:    f.profiles[st.b.Home].ID,
					Primary: f.profiles[st.b.Home].ID,
				}
			}
			res.Placements = append(res.Placements, p)
			if p.Rejected {
				res.Rejected++
				continue
			}
			serving := st.b.Home
			if p.Spilled {
				serving = f.dcIndex(p.Primary)
				res.Spilled++
				res.TransferLatency += p.TransferLatency
				res.TransferCost += p.TransferCost
				f.dcs[serving].spilledIn++
			}
			st.serving = serving
			st.start = tick + latencyTicks(p.TransferLatency)
			st.end = st.start + st.b.Ticks
			f.dcs[serving].admitted++
			f.dcs[serving].bursts++
		}
		// Demand: baseline 1.0 plus every active burst's excess.
		for i := range demands {
			demands[i] = 1.0
		}
		for _, st := range bursts {
			if st.serving >= 0 && tick >= st.start && tick < st.end {
				demands[st.serving] += st.b.Degree - 1
			}
		}
		// Step every DC one tick.
		for i, d := range f.dcs {
			if _, err := d.eng.Step(demands[i]); err != nil {
				return nil, fmt.Errorf("fleet: stepping %s: %w", d.profile.ID, err)
			}
		}
		// Fold the tick's probes into per-DC and burst accounting.
		for _, d := range f.dcs {
			d.plant = d.eng.Plant()
			s := &d.plant
			if s.BreakerStress > d.maxStress {
				d.maxStress = s.BreakerStress
			}
			if s.ThermalMarginC < d.minMargin {
				d.minMargin = s.ThermalMarginC
			}
			if s.UPSSoC < d.minUPS {
				d.minUPS = s.UPSSoC
			}
			if d.eng.Dead() {
				d.dead = true
			}
			if s.BreakerStress >= 1 {
				d.tripped = true
			}
		}
		for _, st := range bursts {
			if st.serving < 0 || tick < st.start || tick >= st.end {
				continue
			}
			d := f.dcs[st.serving]
			ratio := 0.0
			if !d.dead && demands[st.serving] > 0 {
				ratio = d.plant.Delivered / demands[st.serving]
				if ratio > 1 {
					ratio = 1
				}
			}
			st.ratio += ratio
			st.ratioN++
			if tick == st.end-1 {
				d.admitted--
			}
		}
	}
	// Seal: per-DC results and fleet extremes.
	res.WorstThermalMarginC = 1e9
	res.MinUPSSoC = 1
	for _, d := range f.dcs {
		if _, err := d.eng.Finish(); err != nil {
			return nil, fmt.Errorf("fleet: finishing %s: %w", d.profile.ID, err)
		}
		res.PerDC = append(res.PerDC, DCResult{
			ID:               d.profile.ID,
			Servers:          d.profile.Servers,
			Bursts:           d.bursts,
			SpilledIn:        d.spilledIn,
			MaxBreakerStress: d.maxStress,
			MinThermalC:      d.minMargin,
			MinUPSSoC:        d.minUPS,
			Tripped:          d.tripped,
			Dead:             d.dead,
		})
		if d.maxStress > res.WorstBreakerStress {
			res.WorstBreakerStress = d.maxStress
		}
		if d.minMargin < res.WorstThermalMarginC {
			res.WorstThermalMarginC = d.minMargin
		}
		if d.minUPS < res.MinUPSSoC {
			res.MinUPSSoC = d.minUPS
		}
	}
	var ratioSum float64
	var ratioN int
	for _, st := range bursts {
		if st.serving < 0 {
			continue
		}
		mean := 0.0
		if st.ratioN > 0 {
			mean = st.ratio / float64(st.ratioN)
		}
		ratioSum += mean
		ratioN++
		if st.ratioN > 0 && mean >= servedFloor {
			res.Survived++
		}
	}
	if ratioN > 0 {
		res.MeanServedRatio = ratioSum / float64(ratioN)
	}
	return res, nil
}

// dcIndex maps a DC id back to its index.
func (f *Fleet) dcIndex(id string) int {
	for i, p := range f.profiles {
		if p.ID == id {
			return i
		}
	}
	return -1
}
