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
// rows built (one DemandPow each), operating points plan computes, PDU
// groups the tree steps itself (one Breaker.Step and one Battery.Discharge
// each) rather than copies from a lockstep neighbour, and pairs of
// neighbouring groups the partition compares (one Breaker.Lockstep and one
// Battery.Lockstep each).
type workCounts struct{ pows, points, steps, comparisons int }

func (f *facility) work() workCounts {
	return workCounts{f.ctl.buf.demandPows, f.ctl.buf.ctx.points, f.tree.GroupSteps(), f.tree.Comparisons()}
}

func (w workCounts) minus(o workCounts) workCounts {
	return workCounts{w.pows - o.pows, w.points - o.points, w.steps - o.steps, w.comparisons - o.comparisons}
}

// TestReferenceRunWorkCounts holds the reference run's per-group work. A
// row is rebuilt only when the demand moves (733 of the 1,800 ticks repeat
// the last one), and each lockstep run of identical groups computes and
// steps once: 10 groups, but 2 physics steps per tick on average. The
// partition compares neighbouring groups only where the last tick's runs
// end: about 1 comparison per tick, where comparing every pair takes 9.
func TestReferenceRunWorkCounts(t *testing.T) {
	tr, err := workload.SyntheticYahoo(1, 3.2, 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	f := newFacility(t, facilityOpts{servers: 2000})
	for _, d := range tr.Samples {
		f.ctl.Tick(d, tr.Step)
	}
	want := workCounts{pows: 1067, points: 3396, steps: 3706, comparisons: 1911}
	got := f.work()
	t.Logf("%d DemandPow calls, %d operating points, %d group steps, %d comparisons over %d ticks",
		got.pows, got.points, got.steps, got.comparisons, tr.Len())
	if got.pows > want.pows || got.points > want.points || got.steps > want.steps || got.comparisons > want.comparisons {
		t.Fatalf("work %+v over the reference run, want at most %+v", got, want)
	}
}

// TestPaperScaleWorkPerTick runs the reference trace on the paper's
// 900-group facility beside sim's 10-group default. Both must build the
// same demand rows and compute the same operating points on every tick,
// and step the same number of groups on every tick until a recharge
// leaves the batteries unequal: with uniform weights the groups stay in
// one lockstep run, so the PDU count does not enter a tick's cost.
//
// Recharge then splits the runs where the DC spare runs out, and that
// seam moves with the load from tick to tick. On 10 groups it stays among
// the three groups next to it; on 900 it leaves a trail of batteries each
// charged a little differently, up to 162 runs until they fill. The
// paper-scale run still steps 62,648 groups where a walk over every group
// steps 1,620,000.
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
	if n := len(paper.tree.PDUs); n != 900 {
		t.Fatalf("%d PDU groups, want 900", n)
	}
	split := -1 // the first tick that leaves the small facility's groups unequal
	for i, d := range tr.Samples {
		s0, p0 := small.work(), paper.work()
		small.ctl.Tick(d, tr.Step)
		paper.ctl.Tick(d, tr.Step)
		s, p := small.work().minus(s0), paper.work().minus(p0)
		if s.pows != p.pows || s.points != p.points || (split < 0 && s.steps != p.steps) {
			t.Fatalf("tick %d: 10 groups did %+v, 900 groups %+v", i, s, p)
		}
		if runs := small.tree.Runs(); split < 0 && runs[0] != len(runs) {
			split = i
		}
	}
	const maxSteps = 62648
	got := paper.work()
	t.Logf("900 groups: %+v; runs split at tick %d", got, split)
	if split < 0 {
		t.Fatal("no tick split the groups; the recharge seam is not exercised")
	}
	if got.steps > maxSteps {
		t.Fatalf("900 groups stepped %d times, want at most %d", got.steps, maxSteps)
	}
}
