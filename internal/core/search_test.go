package core

// The cap search warm-starts from the previous tick's answer. That returns
// exactly what a full bisection returns only because plan feasibility is
// monotone in the cap. These tests pin both: on every tick the committed
// cap is the largest feasible one found by scanning every cap up to the
// strategy's, and feasibility over the scanned range is a prefix. A
// controller restored from a snapshot starts cold and must decide exactly
// as the original does.

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dcsprint/internal/breaker"
	"dcsprint/internal/cooling"
	"dcsprint/internal/faults"
	"dcsprint/internal/tes"
	"dcsprint/internal/units"
	"dcsprint/internal/ups"
	"dcsprint/internal/workload"
)

// linearCap scans every cap in [NormalCores, capCores] and returns the
// largest feasible one (-1 when none is), failing the test if a feasible
// cap lies above an infeasible one.
func linearCap(t *testing.T, c *Controller, capCores int, in Input, secs float64) int {
	t.Helper()
	best, firstBad := -1, -1
	for n := c.cfg.Server.NormalCores; n <= capCores; n++ {
		if _, ok := c.plan(n, in, secs, false); !ok {
			if firstBad < 0 {
				firstBad = n
			}
			continue
		}
		if firstBad >= 0 {
			t.Fatalf("feasibility not monotone: cap %d fails but cap %d is feasible", firstBad, n)
		}
		best = n
	}
	return best
}

// randomDemand is one tick of a noisy duty cycle: a random walk around
// normal load, then from tick 200 a sustained burst at level (long enough
// for the thermal guard to cap the sprint), with occasional jumps and lulls
// throughout.
func randomDemand(rng *rand.Rand, tick int, level, demand float64) float64 {
	switch r := rng.Float64(); {
	case tick == 200:
		demand = level
	case tick == 1100:
		demand = 0.8
	case r < 0.01:
		demand = 1 + 2.6*rng.Float64()
	case r < 0.02:
		demand = 0.4 + 0.5*rng.Float64()
	case tick > 200 && tick < 1100 && r < 0.1:
		demand = level + 0.3*(rng.Float64()-0.5)
	default:
		demand += 0.1 * (rng.Float64() - 0.5)
	}
	if demand < 0 {
		demand = 0
	}
	return demand
}

func TestCapSearchMatchesLinearScan(t *testing.T) {
	strategies := []Strategy{
		Greedy{},
		FixedBound{Bound: 2.5},
		Heuristic{EstimatedAvgDegree: 2.2, Flexibility: 0.1},
	}
	weightSets := [][]float64{nil, {0.4, 0.8, 1.0, 1.2, 1.6}}
	var capped, warm, hint int
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opts := facilityOpts{
			strategy:   strategies[rng.Intn(len(strategies))],
			weights:    weightSets[rng.Intn(len(weightSets))],
			noTES:      rng.Intn(4) == 0,
			dcHeadroom: 0.02 + 0.18*rng.Float64(),
		}
		f := newFacility(t, opts)
		var inj *faults.Injector
		if seed%3 == 0 {
			// Supervised: the planner reads the sensor bus while a random
			// fault campaign attacks the plant.
			bus := faults.NewSensorBus(f.tree, f.room, f.tank)
			f.ctl.AttachSensors(bus)
			inj = faults.NewInjector(faults.Random(seed, 1500*time.Second, f.tree.Groups()), f.tree, f.tank, bus)
			inj.BindChiller(f.ctl)
		}
		f.ctl.buf.onSearch = func(capCores int, in Input, secs float64, best int) {
			if best < capCores {
				capped++
				if hint >= 0 {
					warm++
				}
			}
			if want := linearCap(t, f.ctl, capCores, in, secs); best != want {
				t.Fatalf("seed %d at %v: search chose cap %d, linear scan %d (caps up to %d)",
					seed, f.ctl.now, best, want, capCores)
			}
		}
		rated := f.tree.DCBreaker.Rated
		level := 2 + 1.6*rng.Float64()
		demand := 0.8
		for i := 0; i < 1500; i++ {
			demand = randomDemand(rng, i, level, demand)
			in := Input{Demand: demand}
			if rng.Float64() < 0.05 {
				in.SupplyLimit = units.Watts(float64(rated) * (0.55 + 0.4*rng.Float64()))
			}
			if inj != nil {
				inj.Advance(time.Second)
				if frac := inj.SupplyFraction(); frac < 1 {
					in.SupplyLimit = units.Watts(frac) * rated
				}
			}
			hint = f.ctl.buf.capHint
			f.ctl.TickInput(in, time.Second, new(TickResult))
		}
	}
	t.Logf("%d ticks capped below the strategy's cap, %d of them warm-started", capped, warm)
	if capped < 1000 || warm < 1000 {
		t.Fatalf("only %d ticks capped below the strategy's cap (%d warm-started); the property is barely exercised",
			capped, warm)
	}
}

// plantState is a facility's component state, enough to rebuild the plant
// in a fresh facility of the same shape.
type plantState struct {
	ctl  ControllerState
	dc   breaker.State
	pdus []breaker.State
	upss []ups.State
	room cooling.State
	tank tes.State
}

func capturePlant(f *facility) plantState {
	st := plantState{ctl: f.ctl.DumpState(), dc: f.tree.DCBreaker.State(), room: f.room.State(), tank: f.tank.State()}
	for g := 0; g < f.tree.Groups(); g++ {
		b, u := f.tree.Breaker(g), f.tree.UPS(g)
		st.pdus = append(st.pdus, b.State())
		st.upss = append(st.upss, u.State())
	}
	return st
}

func TestRestoredControllerDecidesLikeOriginal(t *testing.T) {
	opts := facilityOpts{weights: []float64{0.6, 0.9, 1.0, 1.1, 1.4}}
	orig := newFacility(t, opts)
	// A long burst drives the thermal guard into searching every tick.
	demands := make([]float64, 0, 1500)
	for i := 0; i < 300; i++ {
		demands = append(demands, 0.8)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 900; i++ {
		demands = append(demands, 3.2+0.3*(rng.Float64()-0.5))
	}
	for i := 0; i < 300; i++ {
		demands = append(demands, 0.7)
	}
	// Cut on a tick whose answer lay below the strategy's cap, so the
	// original carries a warm hint the restored controller lacks.
	cut, capped := -1, false
	orig.ctl.buf.onSearch = func(capCores int, _ Input, _ float64, best int) {
		capped = best < capCores
	}
	for i, d := range demands {
		orig.ctl.Tick(d, time.Second)
		if i >= 400 && capped {
			cut = i + 1
			break
		}
	}
	orig.ctl.buf.onSearch = nil
	if cut < 0 {
		t.Fatal("the burst never made the controller cap below the strategy's cap")
	}

	snap := capturePlant(orig)
	restored := newFacility(t, opts)
	mustSet := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mustSet(restored.tree.DCBreaker.SetState(snap.dc))
	for i := range snap.pdus {
		b, u := restored.tree.Own(i)
		mustSet(b.SetState(snap.pdus[i]))
		mustSet(u.SetState(snap.upss[i]))
	}
	mustSet(restored.room.SetState(snap.room))
	mustSet(restored.tank.SetState(snap.tank))
	mustSet(restored.ctl.RestoreState(snap.ctl))
	if restored.ctl.buf.capHint != -1 {
		t.Fatalf("restored controller carries cap hint %d; it must start cold", restored.ctl.buf.capHint)
	}

	for i := cut; i < len(demands); i++ {
		a := orig.ctl.Tick(demands[i], time.Second)
		b := restored.ctl.Tick(demands[i], time.Second)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("tick %d: restored controller decided %+v, original %+v", i, b, a)
		}
	}
	if a, b := orig.ctl.DumpState(), restored.ctl.DumpState(); !reflect.DeepEqual(a, b) {
		t.Fatalf("final controller states differ:\n%+v\n%+v", a, b)
	}
}

// TestReferenceRunPlanCalls bounds the planning work of the reference run
// (the SyntheticYahoo(1, 3.2, 15m) trace on sim's default 2,000-server
// facility): the search ends on its winning plan and starts from the last
// answer, so most ticks plan once or twice.
func TestReferenceRunPlanCalls(t *testing.T) {
	tr, err := workload.SyntheticYahoo(1, 3.2, 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	f := newFacility(t, facilityOpts{servers: 2000})
	for _, d := range tr.Samples {
		f.ctl.Tick(d, tr.Step)
	}
	const maxPlans = 2700
	t.Logf("%d plan calls over %d ticks", f.ctl.buf.plans, tr.Len())
	if f.ctl.buf.plans > maxPlans {
		t.Fatalf("%d plan calls over %d ticks, want at most %d", f.ctl.buf.plans, tr.Len(), maxPlans)
	}
}

// TestPrepareBoundsFollowEachBreaker checks that sharing reserve bounds
// across identical PDU breakers never hands a breaker another's bound.
func TestPrepareBoundsFollowEachBreaker(t *testing.T) {
	f := newFacility(t, facilityOpts{})
	derated, _ := f.tree.Own(1)
	derated.Derate(0.9)
	warm, _ := f.tree.Own(3)
	st := warm.State()
	st.Acc = 0.4
	if err := warm.SetState(st); err != nil {
		t.Fatal(err)
	}
	f.ctl.prepare(Input{Demand: 1.5}, time.Second, 1)
	ctx := &f.ctl.buf.ctx
	for g := 0; g < f.tree.Groups(); g++ {
		b := f.tree.Breaker(g)
		if got, want := ctx.pduMax[runHead(ctx.runs, g)], b.MaxLoadFor(f.ctl.cfg.Reserve); got != want {
			t.Errorf("PDU %d: planning bound %v, breaker's own %v", g, got, want)
		}
	}
}

// TestPrepareBoundsFollowEachBattery checks that sharing output bounds
// across identical batteries never hands a battery another's bound: a
// faded, a failed and a half-drained battery, each between identical full
// ones, plan on their own MaxOutput.
func TestPrepareBoundsFollowEachBattery(t *testing.T) {
	f := newFacility(t, facilityOpts{servers: 2000})
	_, faded := f.tree.Own(2)
	faded.Fade(0.5)
	_, failed := f.tree.Own(5)
	failed.Fail()
	_, half := f.tree.Own(8)
	st := half.State()
	st.Stored /= 2
	if err := half.SetState(st); err != nil {
		t.Fatal(err)
	}
	// Over ten minutes the stored energy, not the power limit, bounds a
	// full battery's output, so a half-drained one bounds lower.
	dt := 10 * time.Minute
	f.ctl.prepare(Input{Demand: 1.5}, dt, dt.Seconds())
	ctx := &f.ctl.buf.ctx
	maxOutput := func(g int) units.Watts {
		u := f.tree.UPS(g)
		return u.MaxOutput(dt.Seconds())
	}
	for g := 0; g < f.tree.Groups(); g++ {
		if got, want := ctx.upsMax[runHead(ctx.runs, g)], maxOutput(g); got != want {
			t.Errorf("PDU %d: planning bound %v, battery's own %v", g, got, want)
		}
	}
	for _, g := range []int{2, 5, 8} {
		if maxOutput(g) == maxOutput(g-1) {
			t.Fatalf("battery %d bounds like its neighbour; the case shows nothing", g)
		}
	}
}

// TestPlanCopiesOnlyIdenticalNeighbours checks that a group copies its
// neighbour's outcome only when its starting point and its budget match:
// under skewed weights, group 2 shares group 1's demand but its derated
// breaker gets a smaller share of the DC budget, so it must be cut on its
// own. Every group's outcome must equal a descent from its own budget.
func TestPlanCopiesOnlyIdenticalNeighbours(t *testing.T) {
	weights := []float64{0.5, 1.5, 1.5, 1.5, 0.5, 0.5, 1.5, 1.5, 1, 1}
	f := newFacility(t, facilityOpts{servers: 2000, weights: weights})
	derated, _ := f.tree.Own(2)
	derated.Derate(0.8)
	for g := 0; g < f.tree.Groups(); g++ {
		_, u := f.tree.Own(g)
		low := u.State()
		low.Stored = 2000 // about 1.9 kW for one second
		if err := u.SetState(low); err != nil {
			t.Fatal(err)
		}
	}
	c := f.ctl
	in := Input{Demand: 2.5}
	c.prepare(in, time.Second, 1)
	p, _ := c.plan(c.cfg.Server.TotalCores, in, 1, true)
	ctx := &c.buf.ctx
	groupSize := units.Watts(f.tree.Config().ServersPerPDU)
	for g := 0; g < f.tree.Groups(); g++ {
		h := runHead(ctx.runs, g)
		r := ctx.rowOf[h]
		start := groupPlan{row: r, cores: ctx.rows[r].want}
		start.perServer, start.delivered = ctx.operatingPoint(c.srv, r, start.cores)
		afford := c.buf.alloc[h] + ctx.upsMax[h]
		want := linearDescent(c.srv, ctx, start, afford, groupSize)
		if !sameGroupPlan(c.buf.groups[h], want) {
			t.Errorf("group %d: planned %+v, its own budget %v gives %+v", g, c.buf.groups[h], afford, want)
		}
		need := want.perServer * groupSize
		ups := min(max(need-c.buf.alloc[h], 0), ctx.upsMax[h])
		if p.flow.PDUServer[h] != need || p.flow.PDUUPS[h] != ups {
			t.Errorf("group %d: flow %v/%v, want %v/%v", g, p.flow.PDUServer[h], p.flow.PDUUPS[h], need, ups)
		}
	}
	if ctx.rowOf[2] != ctx.rowOf[1] || c.buf.alloc[2] == c.buf.alloc[1] || c.buf.groups[2].cores == c.buf.groups[1].cores {
		t.Fatalf("groups 1 and 2: rows %d/%d, breaker shares %v/%v, cores %d/%d; want one row, two shares, two outcomes",
			ctx.rowOf[1], ctx.rowOf[2], c.buf.alloc[1], c.buf.alloc[2], c.buf.groups[1].cores, c.buf.groups[2].cores)
	}
}
