package core

import (
	"testing"
	"time"

	"dcsprint/internal/breaker"
	"dcsprint/internal/chip"
	"dcsprint/internal/cooling"
	"dcsprint/internal/genset"
	"dcsprint/internal/power"
	"dcsprint/internal/server"
	"dcsprint/internal/tes"
	"dcsprint/internal/units"
	"dcsprint/internal/ups"
)

// facility bundles a small controllable data center for tests: 1000 servers
// in 5 PDU groups with the paper's default component models.
type facility struct {
	ctl  *Controller
	tree *power.Tree
	room *cooling.Room
	tank *tes.Tank
}

type facilityOpts struct {
	strategy     Strategy
	uncontrolled bool
	noTES        bool
	dcHeadroom   float64
	weights      []float64
	servers      int // zero means 1000
}

func newFacility(t *testing.T, opts facilityOpts) *facility {
	t.Helper()
	if opts.dcHeadroom == 0 {
		opts.dcHeadroom = 0.10
	}
	if opts.servers == 0 {
		opts.servers = 1000
	}
	srv := server.Default()
	treeCfg := power.Config{
		Servers:          opts.servers,
		ServersPerPDU:    200,
		ServerPeakNormal: srv.PeakNormalPower(),
		PDUHeadroom:      0.25,
		DCHeadroom:       opts.dcHeadroom,
		PUE:              1.53,
		Curve:            breaker.Bulletin1489A(),
		Battery:          ups.DefaultServerBattery(),
	}
	tree, err := power.New(treeCfg)
	if err != nil {
		t.Fatalf("power.New: %v", err)
	}
	coolCfg := cooling.Default(tree.PeakNormalIT())
	room, err := cooling.NewRoom(coolCfg)
	if err != nil {
		t.Fatalf("cooling.NewRoom: %v", err)
	}
	var tank *tes.Tank
	if !opts.noTES {
		tank, err = tes.New(tes.DefaultTank(tree.PeakNormalIT()))
		if err != nil {
			t.Fatalf("tes.New: %v", err)
		}
	}
	ctl, err := New(Config{
		Server:       srv,
		Cooling:      coolCfg,
		Strategy:     opts.strategy,
		Weights:      opts.weights,
		Uncontrolled: opts.uncontrolled,
	}, tree, room, tank)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	return &facility{ctl: ctl, tree: tree, room: room, tank: tank}
}

func TestNewValidation(t *testing.T) {
	f := newFacility(t, facilityOpts{})
	if _, err := New(Config{Server: server.Default(), Cooling: cooling.Default(55000)}, nil, f.room, nil); err == nil {
		t.Error("nil tree accepted")
	}
	if _, err := New(Config{Server: server.Default(), Cooling: cooling.Default(55000)}, f.tree, nil, nil); err == nil {
		t.Error("nil room accepted")
	}
	if _, err := New(Config{Server: server.Config{}, Cooling: cooling.Default(55000)}, f.tree, f.room, nil); err == nil {
		t.Error("invalid server config accepted")
	}
	if _, err := New(Config{Server: server.Default(), Cooling: cooling.Config{}}, f.tree, f.room, nil); err == nil {
		t.Error("invalid cooling config accepted")
	}
}

func TestNormalOperationStaysInPhaseZero(t *testing.T) {
	f := newFacility(t, facilityOpts{})
	for i := 0; i < 600; i++ {
		res := f.ctl.Tick(0.8, time.Second)
		if res.Phase != 0 {
			t.Fatalf("phase %d at tick %d under normal demand", res.Phase, i)
		}
		if res.ActiveCores != 12 {
			t.Fatalf("cores = %d under normal demand", res.ActiveCores)
		}
		if res.Delivered != 0.8 {
			t.Fatalf("delivered = %v, want 0.8", res.Delivered)
		}
		if res.Tripped || res.Dead {
			t.Fatal("trip under normal demand")
		}
	}
	if f.tree.Tripped() {
		t.Fatal("breaker tripped under normal demand")
	}
}

func TestZeroDtIsNoOp(t *testing.T) {
	f := newFacility(t, facilityOpts{})
	res := f.ctl.Tick(2.0, 0)
	if res.ActiveCores != 0 || res.Delivered != 0 {
		t.Fatalf("zero dt produced work: %+v", res)
	}
}

func TestGreedySprintProgressesThroughPhases(t *testing.T) {
	f := newFacility(t, facilityOpts{})
	seen := map[int]bool{}
	var sawAboveOne bool
	// Demand 1.8 keeps the first ticks within the fresh breaker bound
	// (pure Phase 1) before the shrinking bound hands over to the UPS.
	for i := 0; i < 420; i++ {
		res := f.ctl.Tick(1.8, time.Second)
		if res.Tripped {
			t.Fatalf("controlled sprint tripped a breaker at tick %d", i)
		}
		seen[res.Phase] = true
		if res.Delivered > 1 {
			sawAboveOne = true
		}
		if res.RoomTemp >= 40 {
			t.Fatalf("room overheated: %v", res.RoomTemp)
		}
	}
	if !sawAboveOne {
		t.Fatal("sprinting never delivered above normal capacity")
	}
	for _, phase := range []int{1, 2, 3} {
		if !seen[phase] {
			t.Fatalf("phase %d never reached; saw %v", phase, seen)
		}
	}
}

func TestSprintDeliversDemandWhilePowered(t *testing.T) {
	f := newFacility(t, facilityOpts{})
	res := f.ctl.Tick(2.0, time.Second)
	if res.Delivered < 1.99 {
		t.Fatalf("first sprint tick delivered %v, want ~2.0", res.Delivered)
	}
	if res.ActiveCores <= 12 {
		t.Fatalf("cores = %d, want sprinting", res.ActiveCores)
	}
	if res.Degree != float64(res.ActiveCores)/12 {
		t.Fatalf("degree %v inconsistent with cores %d", res.Degree, res.ActiveCores)
	}
}

func TestFixedBoundCapsDegree(t *testing.T) {
	f := newFacility(t, facilityOpts{strategy: FixedBound{Bound: 2}})
	for i := 0; i < 120; i++ {
		res := f.ctl.Tick(3.0, time.Second)
		if res.Degree > 2+1e-9 {
			t.Fatalf("degree %v exceeds fixed bound 2", res.Degree)
		}
		if res.Bound != 2 {
			t.Fatalf("reported bound = %v", res.Bound)
		}
	}
}

func TestBoundBelowOneClampsToNormal(t *testing.T) {
	f := newFacility(t, facilityOpts{strategy: FixedBound{Bound: 0.5}})
	res := f.ctl.Tick(3.0, time.Second)
	if res.ActiveCores != 12 {
		t.Fatalf("cores = %d, want 12 (bound clamped to 1)", res.ActiveCores)
	}
	if res.Bound != 1 {
		t.Fatalf("bound = %v, want clamp to 1", res.Bound)
	}
}

func TestUncontrolledSprintTripsAndDies(t *testing.T) {
	f := newFacility(t, facilityOpts{uncontrolled: true})
	trippedAt := -1
	for i := 0; i < 1800; i++ {
		res := f.ctl.Tick(3.0, time.Second)
		if res.Tripped {
			trippedAt = i
			break
		}
	}
	if trippedAt < 0 {
		t.Fatal("uncontrolled sprinting never tripped")
	}
	// Dead forever after; no recovery even when demand drops.
	res := f.ctl.Tick(0.5, time.Second)
	if !res.Dead || res.Delivered != 0 {
		t.Fatalf("post-trip tick = %+v, want dead with zero delivery", res)
	}
	if !f.ctl.Dead() {
		t.Fatal("Dead() = false after trip")
	}
}

func TestUncontrolledTripsBeforeControlledBudgetEnds(t *testing.T) {
	// The headline §VII-A comparison: at the same demand, the uncontrolled
	// baseline trips quickly while the controlled sprint outlives it.
	unc := newFacility(t, facilityOpts{uncontrolled: true})
	ctl := newFacility(t, facilityOpts{})
	uncLife, ctlLife := 0, 0
	for i := 0; i < 900; i++ {
		if res := unc.ctl.Tick(2.5, time.Second); !res.Dead {
			uncLife++
		}
		res := ctl.ctl.Tick(2.5, time.Second)
		if res.Tripped {
			t.Fatalf("controlled sprint tripped at %d", i)
		}
		if res.Delivered > 1 {
			ctlLife++
		}
	}
	if uncLife >= ctlLife {
		t.Fatalf("uncontrolled lived %d s >= controlled sprint %d s", uncLife, ctlLife)
	}
}

func TestControlledSprintNeverTripsLongRun(t *testing.T) {
	// Even under a demand beyond every budget, the controller sheds degree
	// rather than tripping: the run ends with normal cores, not a trip.
	f := newFacility(t, facilityOpts{})
	last := TickResult{}
	for i := 0; i < 2400; i++ {
		last = f.ctl.Tick(3.4, time.Second)
		if last.Tripped {
			t.Fatalf("tripped at tick %d", i)
		}
		if last.RoomTemp >= 40 {
			t.Fatalf("overheated at tick %d: %v", i, last.RoomTemp)
		}
	}
	if last.ActiveCores != 12 {
		t.Fatalf("after exhaustion cores = %d, want 12", last.ActiveCores)
	}
	if last.Delivered != 1 {
		t.Fatalf("after exhaustion delivered = %v, want 1 (capacity)", last.Delivered)
	}
}

func TestEnergySplitAccounting(t *testing.T) {
	f := newFacility(t, facilityOpts{})
	for i := 0; i < 420; i++ {
		f.ctl.Tick(2.5, time.Second)
	}
	split := f.ctl.Split()
	if split.UPS <= 0 {
		t.Error("UPS contributed no energy")
	}
	if split.TES <= 0 {
		t.Error("TES contributed no energy")
	}
	if split.CBOverload <= 0 {
		t.Error("CB overload contributed no energy")
	}
	if split.Total() != split.UPS+split.TES+split.CBOverload {
		t.Error("Total is not the sum of parts")
	}
}

func TestNoTESAblationStillSprints(t *testing.T) {
	f := newFacility(t, facilityOpts{noTES: true})
	above := 0
	for i := 0; i < 600; i++ {
		res := f.ctl.Tick(2.5, time.Second)
		if res.Tripped {
			t.Fatalf("no-TES sprint tripped at %d", i)
		}
		if res.Phase == 3 {
			t.Fatal("phase 3 reached without a tank")
		}
		if res.RoomTemp >= 40 {
			t.Fatalf("no-TES sprint overheated: %v", res.RoomTemp)
		}
		if res.Delivered > 1 {
			above++
		}
	}
	if above == 0 {
		t.Fatal("no-TES facility never sprinted")
	}
	// §V: without TES the sprint is shorter than with it.
	withTES := newFacility(t, facilityOpts{})
	aboveTES := 0
	for i := 0; i < 600; i++ {
		if res := withTES.ctl.Tick(2.5, time.Second); res.Delivered > 1 {
			aboveTES++
		}
	}
	if above >= aboveTES {
		t.Fatalf("no-TES sprint (%d s) outlasted TES sprint (%d s)", above, aboveTES)
	}
}

func TestBatteriesRechargeAfterBurst(t *testing.T) {
	f := newFacility(t, facilityOpts{})
	// Drain during a sprint.
	for i := 0; i < 300; i++ {
		f.ctl.Tick(2.5, time.Second)
	}
	drained := f.tree.StoredUPSEnergy()
	// Idle demand for a long while: batteries refill.
	for i := 0; i < 3600; i++ {
		res := f.ctl.Tick(0.5, time.Second)
		if res.Tripped {
			t.Fatalf("trip while recharging at %d", i)
		}
	}
	if got := f.tree.StoredUPSEnergy(); got <= drained {
		t.Fatalf("batteries did not recharge: %v -> %v", drained, got)
	}
}

func TestTESRechargesAfterBurst(t *testing.T) {
	f := newFacility(t, facilityOpts{})
	for i := 0; i < 420; i++ {
		f.ctl.Tick(2.5, time.Second)
	}
	low := f.tank.Remaining()
	if low >= f.tank.Capacity() {
		t.Skip("TES was not used in this scenario")
	}
	for i := 0; i < 3600; i++ {
		f.ctl.Tick(0.5, time.Second)
	}
	if got := f.tank.Remaining(); got <= low {
		t.Fatalf("TES did not recharge: %v -> %v", low, got)
	}
}

func TestBudgetEstimatedAtBurstStart(t *testing.T) {
	f := newFacility(t, facilityOpts{})
	if got := f.ctl.DumpState().BudgetTotal; got != 0 {
		t.Fatalf("budget before burst = %v, want 0", got)
	}
	f.ctl.Tick(2.0, time.Second)
	budget := f.ctl.DumpState().BudgetTotal
	if budget <= 0 {
		t.Fatal("budget not estimated at burst start")
	}
	// Sanity: the budget includes at least the UPS energy.
	if budget < f.tree.StoredUPSEnergy() {
		t.Fatalf("budget %v below UPS energy %v", budget, f.tree.StoredUPSEnergy())
	}
}

func TestDemandBeyondChipCapacityIsCapped(t *testing.T) {
	f := newFacility(t, facilityOpts{})
	res := f.ctl.Tick(5.0, time.Second)
	max := server.Default().MaxThroughput()
	if res.Delivered > max {
		t.Fatalf("delivered %v beyond chip capacity %v", res.Delivered, max)
	}
	if res.ActiveCores != 48 {
		t.Fatalf("cores = %d, want all 48", res.ActiveCores)
	}
}

func TestHeuristicStrategyEndToEnd(t *testing.T) {
	f := newFacility(t, facilityOpts{strategy: Heuristic{EstimatedAvgDegree: 2.0, Flexibility: 0.1}})
	for i := 0; i < 300; i++ {
		res := f.ctl.Tick(3.0, time.Second)
		if res.Tripped {
			t.Fatalf("heuristic run tripped at %d", i)
		}
		if res.Degree > res.Bound+1e-9 {
			t.Fatalf("degree %v above bound %v", res.Degree, res.Bound)
		}
	}
}

func TestEnergySplitSharesRoughlyMatchPaper(t *testing.T) {
	// §VII-A (MS trace, Greedy): UPS ~54% and TES ~13% of the additional
	// energy. Shapes, not exact numbers: UPS must dominate, CB and TES
	// must both be minor but non-trivial contributors.
	f := newFacility(t, facilityOpts{})
	for i := 0; i < 900; i++ {
		f.ctl.Tick(2.5, time.Second)
	}
	split := f.ctl.Split()
	total := float64(split.Total())
	if total <= 0 {
		t.Fatal("no additional energy recorded")
	}
	upsShare := float64(split.UPS) / total
	tesShare := float64(split.TES) / total
	if upsShare < 0.3 {
		t.Errorf("UPS share = %.2f, want dominant (>0.3)", upsShare)
	}
	if tesShare <= 0.02 || tesShare > 0.6 {
		t.Errorf("TES share = %.2f, want minor but present", tesShare)
	}
}

func TestDegreePower(t *testing.T) {
	f := newFacility(t, facilityOpts{})
	// 1000 servers x 12 cores x 2.5 W = 30 kW per unit of degree.
	if got := f.ctl.degreePower; got != 30000 {
		t.Fatalf("degreePower = %v, want 30 kW", got)
	}
}

var _ = units.Watts(0) // keep the units import if assertions above change

func TestWeightsValidation(t *testing.T) {
	f := newFacility(t, facilityOpts{})
	base := Config{Server: server.Default(), Cooling: cooling.Default(f.tree.PeakNormalIT())}

	bad := base
	bad.Weights = []float64{1, 2} // 5 PDU groups in the test facility
	if _, err := New(bad, f.tree, f.room, nil); err == nil {
		t.Error("wrong-width weights accepted")
	}
	bad = base
	bad.Weights = []float64{1, 1, 0, 1, 1}
	if _, err := New(bad, f.tree, f.room, nil); err == nil {
		t.Error("zero weight accepted")
	}
	// Weights are normalized to mean 1: scaling them all changes nothing.
	ok := base
	ok.Weights = []float64{2, 2, 2, 2, 2}
	ctl, err := New(ok, f.tree, f.room, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := ctl.Tick(0.8, time.Second)
	if res.Delivered != 0.8 {
		t.Fatalf("uniformly scaled weights changed delivery: %v", res.Delivered)
	}
}

func TestHeterogeneousWeightsShareTheBudget(t *testing.T) {
	srv := server.Default()
	treeCfg := power.Config{
		Servers:          1000,
		ServersPerPDU:    200,
		ServerPeakNormal: srv.PeakNormalPower(),
		PDUHeadroom:      0.25,
		DCHeadroom:       0.10,
		PUE:              1.53,
		Curve:            breaker.Bulletin1489A(),
		Battery:          ups.DefaultServerBattery(),
	}
	tree, err := power.New(treeCfg)
	if err != nil {
		t.Fatal(err)
	}
	coolCfg := cooling.Default(tree.PeakNormalIT())
	room, err := cooling.NewRoom(coolCfg)
	if err != nil {
		t.Fatal(err)
	}
	tank, err := tes.New(tes.DefaultTank(tree.PeakNormalIT()))
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := New(Config{
		Server:  srv,
		Cooling: coolCfg,
		Weights: []float64{0.4, 0.8, 1.0, 1.2, 1.6},
	}, tree, room, tank)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		res := ctl.Tick(2.0, time.Second)
		if res.Tripped {
			t.Fatalf("heterogeneous sprint tripped at %d", i)
		}
		// The hottest group (weight 1.6 at demand 2.0 -> 3.2x) needs more
		// cores than the mean degree suggests.
		if res.ActiveCores > 0 && res.Degree > float64(res.ActiveCores)/12+1e-9 {
			t.Fatalf("mean degree %v above max group degree %v", res.Degree, float64(res.ActiveCores)/12)
		}
	}
}

func TestSupplyLimitBridgedByUPS(t *testing.T) {
	f := newFacility(t, facilityOpts{})
	rated := f.tree.DCBreaker.Rated
	limit := rated * 55 / 100
	for i := 0; i < 120; i++ {
		var res TickResult
		f.ctl.TickInput(Input{Demand: 0.9, SupplyLimit: limit}, time.Second, &res)
		if res.Tripped {
			t.Fatalf("tripped at %d under a curtailment the UPS can bridge", i)
		}
		if res.Delivered < 0.9-1e-9 {
			t.Fatalf("demand shed at %d: %v", i, res.Delivered)
		}
		if res.DCLoad > limit+1e-6 {
			t.Fatalf("DC load %v exceeds the supply limit %v", res.DCLoad, limit)
		}
		if res.UPSPower <= 0 {
			t.Fatalf("UPS idle at %d despite the curtailment", i)
		}
	}
}

func TestSupplyLimitExhaustionDegradesWithoutPanic(t *testing.T) {
	// A curtailment too deep and too long for the stores: the controller
	// keeps returning well-formed results; the forced fallback may
	// eventually stress a breaker, but nothing panics and delivery never
	// goes negative.
	f := newFacility(t, facilityOpts{})
	rated := f.tree.DCBreaker.Rated
	limit := rated * 30 / 100
	for i := 0; i < 3600; i++ {
		var res TickResult
		f.ctl.TickInput(Input{Demand: 0.9, SupplyLimit: limit}, time.Second, &res)
		if res.Delivered < 0 || res.Delivered > 0.9+1e-9 {
			t.Fatalf("delivered out of range at %d: %v", i, res.Delivered)
		}
		if res.Dead {
			return // acceptable end state for an unsurvivable emergency
		}
	}
}

// attachTestGenerator wires a facility-sized genset to the controller.
func attachTestGenerator(t *testing.T, f *facility) *genset.Generator {
	t.Helper()
	normalTotal := f.tree.PeakNormalIT() + cooling.Default(f.tree.PeakNormalIT()).NormalCoolingPower()
	g, err := genset.New(genset.Default(normalTotal))
	if err != nil {
		t.Fatal(err)
	}
	f.ctl.AttachGenerator(g)
	return g
}

func TestChipThermalBoundsSprint(t *testing.T) {
	short := newFacility(t, facilityOpts{})
	srv := server.Default()
	excess := srv.PeakSprintPower() - srv.PeakNormalPower()
	th, err := chip.New(chip.Config{
		SustainablePower: srv.PeakNormalPower() - srv.NonCPUPower,
		PCMCapacity:      units.ForDuration(excess, 120),
		RefreezeRate:     excess / 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	short.ctl.AttachChipThermal(th)

	unconstrained := newFacility(t, facilityOpts{})
	shortAbove, freeAbove := 0, 0
	for i := 0; i < 600; i++ {
		if res := short.ctl.Tick(2.5, time.Second); res.Delivered > 1 {
			shortAbove++
		}
		if res := unconstrained.ctl.Tick(2.5, time.Second); res.Delivered > 1 {
			freeAbove++
		}
	}
	// §IV: the chip package ends the sprint before the facility stores do.
	if shortAbove >= freeAbove {
		t.Fatalf("chip-bounded sprint (%d s) not shorter than unconstrained (%d s)", shortAbove, freeAbove)
	}
	if shortAbove == 0 {
		t.Fatal("chip-bounded facility never sprinted")
	}
	// The reserve policy lands the chip just short of exhaustion — the
	// whole point: sprinting ends *before* the package is spent.
	if got := float64(th.Headroom()) / float64(units.ForDuration(excess, 120)); got > 0.05 {
		t.Fatalf("PCM headroom fraction = %v, want nearly spent", got)
	}
}
