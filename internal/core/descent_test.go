package core

// plan cuts a group that its budget cannot carry by bisecting the saturated
// power table instead of dropping one core at a time. The bisection stops
// exactly where the linear descent did only because the table rises
// strictly with the core count. These tests pin both, and hold the number of
// operating points the reference run evaluates.

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"dcsprint/internal/server"
	"dcsprint/internal/units"
	"dcsprint/internal/workload"
)

// linearDescent is the one-core-at-a-time descent descend replaces.
func linearDescent(srv *server.Model, ctx *planContext, gp groupPlan, afford, groupSize units.Watts) groupPlan {
	need := gp.perServer * groupSize
	for need > afford+1e-9 && gp.cores > srv.NormalCores {
		gp.cores--
		gp.perServer, gp.delivered = ctx.operatingPoint(srv, gp.row, gp.cores)
		need = gp.perServer * groupSize
	}
	return gp
}

// jumpDescent is plan's cut: descend, entered under the linear loop's
// condition.
func jumpDescent(srv *server.Model, ctx *planContext, gp groupPlan, afford, groupSize units.Watts) groupPlan {
	if gp.perServer*groupSize > afford+1e-9 && gp.cores > srv.NormalCores {
		ctx.descend(srv, &gp, afford, groupSize)
	}
	return gp
}

func sameGroupPlan(a, b groupPlan) bool {
	return a.row == b.row && a.cores == b.cores &&
		math.Float64bits(float64(a.perServer)) == math.Float64bits(float64(b.perServer)) &&
		math.Float64bits(a.delivered) == math.Float64bits(b.delivered)
}

// checkSaturatedTableIncreasing fails unless the power of n saturated cores
// rises strictly with n, the property the bisection rests on.
func checkSaturatedTableIncreasing(t *testing.T, m *server.Model) {
	t.Helper()
	top := m.Throughput(m.TotalCores) // saturates every count
	prev, _ := m.PowerAtDemand(1, top)
	for n := 2; n <= m.TotalCores; n++ {
		p, _ := m.PowerAtDemand(n, top)
		if !(p > prev) {
			t.Fatalf("%+v: saturated power %v at %d cores, %v at %d: not strictly increasing",
				m.Config, p, n, prev, n-1)
		}
		prev = p
	}
}

// randomServer returns a valid server configuration.
func randomServer(rng *rand.Rand) server.Config {
	total := 1 + rng.Intn(96)
	return server.Config{
		TotalCores:    total,
		NormalCores:   1 + rng.Intn(total),
		CorePower:     units.Watts(0.2 + 8*rng.Float64()),
		ChipIdlePower: units.Watts(20 * rng.Float64()),
		NonCPUPower:   units.Watts(60 * rng.Float64()),
		PerfExponent:  0.05 + 0.95*rng.Float64(),
	}
}

func TestDescentMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	// The experiments run every scenario on server.Default(): sim fills
	// it in, and no experiment sets Scenario.Server.
	configs := []server.Config{
		server.Default(),
		{TotalCores: 64, NormalCores: 16, CorePower: 3, ChipIdlePower: 6, NonCPUPower: 25, PerfExponent: 0.6},
		{TotalCores: 8, NormalCores: 2, CorePower: 1.5, ChipIdlePower: 1, NonCPUPower: 4, PerfExponent: 1},
	}
	for i := 0; i < 12; i++ {
		configs = append(configs, randomServer(rng))
	}
	cases, cut := 0, 0
	for _, cfg := range configs {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("bad test config %+v: %v", cfg, err)
		}
		srv := server.NewModel(cfg)
		checkSaturatedTableIncreasing(t, srv)
		demands := []float64{0.5, 1, cfg.MaxThroughput() * 1.5}
		for n := cfg.NormalCores; n <= cfg.TotalCores; n++ {
			demands = append(demands, cfg.Throughput(n))
		}
		for i := 0; i < 8; i++ {
			demands = append(demands, 1+rng.Float64()*cfg.MaxThroughput())
		}
		for _, d := range demands {
			ctx := &planContext{rows: []demandRow{newDemandRow(srv, d)}}
			want := ctx.rows[0].want
			groupSize := units.Watts(200)
			if rng.Intn(2) == 0 {
				groupSize = units.Watts(1 + rng.Intn(500))
			}
			// Every table entry the descent can land on, the 1e-9 slack
			// around it, and random budgets from nothing to beyond the
			// starting point.
			var affords []units.Watts
			for n := cfg.NormalCores; n <= want; n++ {
				p, _ := ctx.operatingPoint(srv, 0, n)
				need := p * groupSize
				affords = append(affords, need, need-1e-9, need+1e-9,
					units.Watts(math.Nextafter(float64(need-1e-9), math.Inf(-1))),
					units.Watts(math.Nextafter(float64(need-1e-9), math.Inf(1))))
			}
			top, _ := ctx.operatingPoint(srv, 0, want)
			for i := 0; i < 16; i++ {
				affords = append(affords, units.Watts(rng.Float64()*1.2)*top*groupSize)
			}
			affords = append(affords, 0, -1)
			for start := cfg.NormalCores; start <= want; start++ {
				gp := groupPlan{cores: start}
				gp.perServer, gp.delivered = ctx.operatingPoint(srv, 0, start)
				for _, afford := range affords {
					lin := linearDescent(srv, ctx, gp, afford, groupSize)
					jump := jumpDescent(srv, ctx, gp, afford, groupSize)
					if !sameGroupPlan(lin, jump) {
						t.Fatalf("%+v demand %v from %d cores, afford %v: bisection %+v, linear %+v",
							cfg, d, start, afford, jump, lin)
					}
					cases++
					if start-lin.cores > 1 {
						cut++
					}
				}
			}
		}
	}
	t.Logf("%d cases, %d cut by more than one core", cases, cut)
	if cut < 10000 {
		t.Fatalf("only %d cases cut by more than one core; the bisection is barely exercised", cut)
	}
}

// TestReferenceRunDescentSteps holds the operating points the reference run
// evaluates inside cuts. Cutting one core at a time took 20,430; bisecting,
// once for each run of alike groups, takes 765.
func TestReferenceRunDescentSteps(t *testing.T) {
	tr, err := workload.SyntheticYahoo(1, 3.2, 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	f := newFacility(t, facilityOpts{servers: 2000})
	for _, d := range tr.Samples {
		f.ctl.Tick(d, tr.Step)
	}
	const maxSteps = 765 * 11 / 10
	t.Logf("%d descent steps over %d plan calls", f.ctl.buf.descentSteps, f.ctl.buf.plans)
	if f.ctl.buf.descentSteps > maxSteps {
		t.Fatalf("%d descent steps, want at most %d", f.ctl.buf.descentSteps, maxSteps)
	}
}

// workCounts are the deterministic work counters of one controller: demand
// rows built (one DemandPow each), operating points plan computes, lockstep
// runs the tree steps (one Breaker.Step and one Battery.Discharge each),
// pairs of neighbouring groups the partition compares (one
// Breaker.Lockstep and one Battery.Lockstep each), and states copied to a
// member of a run that came to start a run of its own.
type workCounts struct{ pows, points, steps, comparisons, copies int }

func (f *facility) work() workCounts {
	steps, comparisons, copies := f.tree.Work()
	return workCounts{f.ctl.buf.demandPows, f.ctl.buf.ctx.points, steps, comparisons, copies}
}

func (w workCounts) minus(o workCounts) workCounts {
	return workCounts{w.pows - o.pows, w.points - o.points, w.steps - o.steps, w.comparisons - o.comparisons, w.copies - o.copies}
}

// TestReferenceRunWorkCounts holds the reference run's per-group work. A
// row is rebuilt only when the demand moves (733 of the 1,800 ticks repeat
// the last one), and the 10 identical groups stay one lockstep run, which
// computes and steps once a tick: recharge shares the DC spare in
// proportion, so it never leaves them unequal. The partition compares
// neighbouring groups only where the last tick's runs end: every pair on
// the first tick, when each group is its own run, and none after. The run
// holds its state once and never splits, so no member's state is ever
// copied.
func TestReferenceRunWorkCounts(t *testing.T) {
	tr, err := workload.SyntheticYahoo(1, 3.2, 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	f := newFacility(t, facilityOpts{servers: 2000})
	for _, d := range tr.Samples {
		f.ctl.Tick(d, tr.Step)
	}
	want := workCounts{pows: 1067, points: 3396, steps: 1800, comparisons: 9, copies: 0}
	got := f.work()
	t.Logf("%d DemandPow calls, %d operating points, %d group steps, %d comparisons, %d state copies over %d ticks",
		got.pows, got.points, got.steps, got.comparisons, got.copies, tr.Len())
	if got.pows > want.pows || got.points > want.points || got.steps > want.steps || got.comparisons > want.comparisons ||
		got.copies > want.copies {
		t.Fatalf("work %+v over the reference run, want at most %+v", got, want)
	}
}

// TestPaperScaleWorkPerTick runs the reference trace on the paper's
// 900-group facility beside sim's 10-group default. On every tick both must
// build the same demand rows, compute the same operating points and step
// exactly one group: with uniform weights the groups stay one lockstep run,
// recharge included, so the PDU count does not enter a tick's stepping
// cost. The partition compares each neighbouring pair once, on the first
// tick, and never again, and no member's state is ever copied. A walk over
// every group would step 1,620,000 groups and compare 1,618,200 pairs.
func TestPaperScaleWorkPerTick(t *testing.T) {
	if testing.Short() {
		t.Skip("a 900-group reference run")
	}
	tr, err := workload.SyntheticYahoo(1, 3.2, 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	small := newFacility(t, facilityOpts{servers: 2000})
	paper := newFacility(t, facilityOpts{servers: 180000})
	if n := paper.tree.Groups(); n != 900 {
		t.Fatalf("%d PDU groups, want 900", n)
	}
	for i, d := range tr.Samples {
		s0, p0 := small.work(), paper.work()
		small.ctl.Tick(d, tr.Step)
		paper.ctl.Tick(d, tr.Step)
		s, p := small.work().minus(s0), paper.work().minus(p0)
		if s.pows != p.pows || s.points != p.points || s.steps != 1 || p.steps != 1 || s.copies != 0 || p.copies != 0 {
			t.Fatalf("tick %d: 10 groups did %+v, 900 groups %+v; want the same rows and points, one group step and no state copy each", i, s, p)
		}
	}
	const maxSteps, maxComparisons = 1800, 899
	got := paper.work()
	t.Logf("900 groups: %+v", got)
	if got.steps > maxSteps || got.comparisons > maxComparisons {
		t.Fatalf("900 groups did %+v, want at most %d group steps and %d comparisons", got, maxSteps, maxComparisons)
	}
}
