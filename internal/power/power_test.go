package power

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"dcsprint/internal/breaker"
	"dcsprint/internal/units"
	"dcsprint/internal/ups"
)

func testConfig() Config {
	return Config{
		Servers:          1000,
		ServersPerPDU:    200,
		ServerPeakNormal: 55,
		PDUHeadroom:      0.25,
		DCHeadroom:       0.10,
		PUE:              1.53,
		Curve:            breaker.Bulletin1489A(),
		Battery:          ups.DefaultServerBattery(),
	}
}

func newTree(t *testing.T, cfg Config) *Tree {
	t.Helper()
	tree, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tree
}

func TestPaperSizing(t *testing.T) {
	tree := newTree(t, testConfig())
	if got := tree.Groups(); got != 5 {
		t.Fatalf("PDU count = %d, want 5", got)
	}
	// §VI-A: PDU breaker rated 55 W x 200 x 1.25 = 13.75 kW.
	if got := tree.Breaker(0).Rated; got != 13750 {
		t.Fatalf("PDU rating = %v, want 13.75 kW", got)
	}
	// DC breaker: 55 kW IT x 1.53 PUE x 1.10 headroom.
	want := units.Watts(55 * 1000 * 1.53 * 1.10)
	if got := tree.DCBreaker.Rated; math.Abs(float64(got-want)) > 1 {
		t.Fatalf("DC rating = %v, want %v", got, want)
	}
	if got := tree.PeakNormalIT(); got != 55000 {
		t.Fatalf("PeakNormalIT = %v, want 55 kW", got)
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"default", func(c *Config) {}, true},
		{"zero servers", func(c *Config) { c.Servers = 0 }, false},
		{"zero group", func(c *Config) { c.ServersPerPDU = 0 }, false},
		{"non-multiple", func(c *Config) { c.Servers = 1001 }, false},
		{"zero server power", func(c *Config) { c.ServerPeakNormal = 0 }, false},
		{"negative PDU headroom", func(c *Config) { c.PDUHeadroom = -0.1 }, false},
		{"negative DC headroom", func(c *Config) { c.DCHeadroom = -0.1 }, false},
		{"zero DC headroom ok", func(c *Config) { c.DCHeadroom = 0 }, true},
		{"PUE below 1", func(c *Config) { c.PUE = 0.8 }, false},
		{"bad curve", func(c *Config) { c.Curve = breaker.TripCurve{} }, false},
		{"bad battery", func(c *Config) { c.Battery = ups.BatteryConfig{} }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig()
			tt.mut(&cfg)
			_, err := New(cfg)
			if (err == nil) != tt.ok {
				t.Fatalf("New = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

// singles returns n runs of one group each.
func singles(n int) []int {
	runs := make([]int, n)
	for g := range runs {
		runs[g] = g + 1
	}
	return runs
}

func uniformFlow(tree *Tree, perPDU, upsPerPDU, cooling units.Watts) Flow {
	n := tree.Groups()
	f := Flow{
		PDUServer: make([]units.Watts, n),
		PDUUPS:    make([]units.Watts, n),
		Cooling:   cooling,
		Runs:      singles(n),
	}
	for i := range f.PDUServer {
		f.PDUServer[i] = perPDU
		f.PDUUPS[i] = upsPerPDU
	}
	return f
}

func TestFlowLoads(t *testing.T) {
	tree := newTree(t, testConfig())
	f := uniformFlow(tree, 11000, 2000, 30000)
	if got := f.PDULoad(0); got != 9000 {
		t.Fatalf("PDULoad = %v, want 9000", got)
	}
	if got := f.DCLoad(); got != 5*9000+30000 {
		t.Fatalf("DCLoad = %v, want 75000", got)
	}
	// UPS covering more than the group draw cannot push power upstream.
	f2 := uniformFlow(tree, 1000, 5000, 0)
	if got := f2.PDULoad(0); got != 0 {
		t.Fatalf("over-covered PDULoad = %v, want 0", got)
	}
}

func TestStepNormalOperation(t *testing.T) {
	tree := newTree(t, testConfig())
	// Peak normal: 11 kW per PDU group plus cooling 55 kW x (PUE-1).
	f := uniformFlow(tree, 11000, 0, 29150)
	for i := 0; i < 600; i++ {
		if err := tree.Step(&f, 1); err != nil {
			t.Fatalf("trip at peak normal load after %d s: %v", i, err)
		}
	}
	if tree.Tripped() {
		t.Fatal("tree tripped at peak normal load")
	}
}

func TestStepPDUTripsOnSustainedOverload(t *testing.T) {
	tree := newTree(t, testConfig())
	// 60% overload on each PDU breaker (13.75 kW x 1.6 = 22 kW), cooling
	// low so the DC breaker stays under its rating.
	f := uniformFlow(tree, 22000, 0, 0)
	var err error
	secs := 0
	for ; secs < 300; secs++ {
		if err = tree.Step(&f, 1); err != nil {
			break
		}
	}
	if !errors.Is(err, breaker.ErrTripped) {
		t.Fatalf("no trip: %v", err)
	}
	if secs < 55 || secs > 65 {
		t.Fatalf("tripped after %d s, want ~60", secs)
	}
	if !tree.Tripped() {
		t.Fatal("Tripped() = false")
	}
}

func TestUPSReducesPDULoad(t *testing.T) {
	tree := newTree(t, testConfig())
	// 22 kW server draw per group with 9 kW on battery: PDU load 13 kW,
	// under the 13.75 kW rating — no trip, batteries drain.
	f := uniformFlow(tree, 22000, 9000, 0)
	start := tree.StoredUPSEnergy()
	for i := 0; i < 60; i++ {
		if err := tree.Step(&f, 1); err != nil {
			t.Fatalf("tripped despite UPS support: %v", err)
		}
	}
	drained := start - tree.StoredUPSEnergy()
	// 5 groups x 9 kW x 60 s = 2.7 MJ delivered (more drained with loss).
	if drained < units.Joules(2.7e6) {
		t.Fatalf("UPS drained %v, want >= 2.7 MJ", drained)
	}
}

func TestUPSShortfallFallsBackToPDU(t *testing.T) {
	cfg := testConfig()
	tree := newTree(t, cfg)
	// Drain the batteries completely first.
	f := uniformFlow(tree, 22000, 100000, 0)
	for tree.StoredUPSEnergy() > 0 {
		_ = tree.Step(&f, 1)
		if tree.Tripped() {
			break
		}
	}
	tree.Reset()
	// Now ask the empty batteries for 9 kW: the full 22 kW lands on the
	// PDU breakers (60% overload) and they trip in ~a minute.
	var err error
	secs := 0
	for ; secs < 300; secs++ {
		if err = tree.Step(&f, 1); err != nil {
			break
		}
	}
	if !errors.Is(err, breaker.ErrTripped) {
		t.Fatal("empty UPS did not push the load back onto the PDU")
	}
	if secs > 70 {
		t.Fatalf("tripped after %d s, want ~60 (full load on PDU)", secs)
	}
}

func TestDCBreakerCarriesUPSShortfall(t *testing.T) {
	tree := newTree(t, testConfig())
	_, u := tree.Own(0)
	u.Fail()
	// 4 kW planned on every group's battery; group 0's string is dead, so
	// its 4 kW lands on its PDU feed and must reach the DC feed too.
	f := uniformFlow(tree, 13000, 4000, 6000)
	if err := tree.Step(&f, 1); err != nil {
		t.Fatalf("Step: %v", err)
	}
	var pduSum units.Watts
	for g := 0; g < tree.Groups(); g++ {
		b := tree.Breaker(g)
		pduSum += b.Load()
	}
	if b := tree.Breaker(0); b.Load() != 13000 {
		t.Fatalf("failed group's PDU breaker carries %v, want the full 13 kW", b.Load())
	}
	if got, want := tree.DCBreaker.Load(), pduSum+f.Cooling; got != want {
		t.Fatalf("DC breaker carries %v, want PDU loads %v + cooling %v = %v", got, pduSum, f.Cooling, want)
	}
	if got := tree.DCBreaker.Load(); got <= f.DCLoad() {
		t.Fatalf("DC breaker carries %v, no more than the planned %v: the shortfall was dropped", got, f.DCLoad())
	}
}

func TestStepFlowWidthMismatch(t *testing.T) {
	tree := newTree(t, testConfig())
	f := Flow{PDUServer: make([]units.Watts, 2), PDUUPS: make([]units.Watts, 2), Runs: singles(2)}
	if err := tree.Step(&f, 1); err == nil {
		t.Fatal("width mismatch accepted")
	}
	f = uniformFlow(tree, 0, 0, 0)
	f.Runs = f.Runs[:2]
	if err := tree.Step(&f, 1); err == nil {
		t.Fatal("runs width mismatch accepted")
	}
}

func TestDCBreakerSeesCooling(t *testing.T) {
	tree := newTree(t, testConfig())
	// Server load at peak normal, cooling pushed far beyond the DC
	// rating's headroom: only the DC breaker is overloaded.
	f := uniformFlow(tree, 11000, 0, 60000)
	var tripped error
	secs := 0
	for ; secs < 600; secs++ {
		if tripped = tree.Step(&f, 1); tripped != nil {
			break
		}
	}
	if tripped == nil {
		t.Fatal("DC breaker never tripped")
	}
	if !tree.DCBreaker.Tripped() {
		t.Fatal("trip was not the DC breaker")
	}
	for g := 0; g < tree.Groups(); g++ {
		if b := tree.Breaker(g); b.Tripped() {
			t.Fatal("PDU breaker tripped unexpectedly")
		}
	}
}

func TestReset(t *testing.T) {
	tree := newTree(t, testConfig())
	f := uniformFlow(tree, 80000, 0, 0) // magnetic trip on PDUs
	_ = tree.Step(&f, 1)
	if !tree.Tripped() {
		t.Fatal("setup: expected trip")
	}
	tree.Reset()
	if tree.Tripped() {
		t.Fatal("Reset left breakers tripped")
	}
}

func TestUPSSoC(t *testing.T) {
	tree := newTree(t, testConfig())
	if got := tree.UPSSoC(); got != 1 {
		t.Fatalf("fresh SoC = %v, want 1", got)
	}
	// Drain every group to half charge (respecting the power limit).
	for g := 0; g < tree.Groups(); g++ {
		_, u := tree.Own(g)
		for u.SoC() > 0.5 {
			if u.Discharge(u.MaxOutput(1), 1) == 0 {
				break
			}
		}
	}
	if got := tree.UPSSoC(); math.Abs(got-0.5) > 0.02 {
		t.Fatalf("half SoC = %v, want ~0.5", got)
	}
}

func runsOf(runs []int) [][2]int {
	var out [][2]int
	for g := 0; g < len(runs); g = runs[g] {
		out = append(out, [2]int{g, runs[g]})
	}
	return out
}

// TestPartitionSplitsWhereGroupsDiffer derates a breaker, fades a battery
// and puts two groups in another class, and requires Partition to split
// the runs exactly around each, materializing only the groups that come to
// start a run inside one.
func TestPartitionSplitsWhereGroupsDiffer(t *testing.T) {
	cfg := testConfig()
	cfg.Servers = 2000
	tree := newTree(t, cfg)
	one := []int{10}
	if got := runsOf(tree.Partition(one)); len(got) != 1 || got[0] != [2]int{0, 10} {
		t.Fatalf("a fresh tree partitions into %v, want one run", got)
	}
	if _, _, n := tree.Work(); n != 0 {
		t.Fatalf("merging fresh groups materialized %d states, want none", n)
	}
	b, _ := tree.Own(2)
	b.Derate(0.9)
	_, u := tree.Own(5)
	u.Fade(0.5)
	// Own splits off 2, 3, 5 and 6, each inside the one run.
	if _, _, n := tree.Work(); n != 4 {
		t.Fatalf("owning two groups materialized %d states, want 4", n)
	}
	classes := []int{8, 0, 0, 0, 0, 0, 0, 0, 10, 0}
	runs := tree.Partition(classes)
	want := [][2]int{{0, 2}, {2, 3}, {3, 5}, {5, 6}, {6, 8}, {8, 10}}
	if got := runsOf(runs); !equalRuns(got, want) {
		t.Fatalf("runs %v, want %v", got, want)
	}
	// The class seam at 8 falls inside the run that Own left at 6.
	if _, _, n := tree.Work(); n != 5 {
		t.Fatalf("the class seam materialized %d states in all, want 5", n)
	}
}

func equalRuns(a, b [][2]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStepRunsMatchesEveryGroup steps one tree a run at a time and a twin
// group by group under the same flows, through overload, battery drain and
// trips, and requires every breaker, battery and error to match bit for
// bit.
func TestStepRunsMatchesEveryGroup(t *testing.T) {
	cfg := testConfig()
	cfg.Servers = 2000
	byRun, byGroup := newTree(t, cfg), newTree(t, cfg)
	for _, tr := range []*Tree{byRun, byGroup} {
		b, _ := tr.Own(3)
		b.Derate(0.8)
		_, u := tr.Own(6)
		u.Fade(0.3)
	}
	rated := byRun.Breaker(0).Rated
	one := []int{10}
	for tick := 0; tick < 400; tick++ {
		runs := byRun.Partition(one)
		f := Flow{PDUServer: make([]units.Watts, 10), PDUUPS: make([]units.Watts, 10), Cooling: 1000, Runs: runs}
		for g := 0; g < 10; g = runs[g] {
			server := rated * units.Watts(1+0.004*float64(tick))
			ups := server * units.Watts(0.2*float64(g%3))
			for m := g; m < runs[g]; m++ {
				f.PDUServer[m], f.PDUUPS[m] = server, ups
			}
		}
		errRun := byRun.Step(&f, 1)
		f.Runs = singles(10)
		errGroup := byGroup.Step(&f, 1)
		if fmt.Sprint(errRun) != fmt.Sprint(errGroup) {
			t.Fatalf("tick %d: errors %v and %v", tick, errRun, errGroup)
		}
		for g := 0; g < 10; g++ {
			ab, au, bb, bu := byRun.Breaker(g), byRun.UPS(g), byGroup.Breaker(g), byGroup.UPS(g)
			if ab.State() != bb.State() || au.State() != bu.State() {
				t.Fatalf("tick %d group %d: %+v %+v, want %+v %+v", tick, g,
					ab.State(), au.State(), bb.State(), bu.State())
			}
		}
		if byRun.DCBreaker.State() != byGroup.DCBreaker.State() {
			t.Fatalf("tick %d: DC breakers %+v and %+v", tick, byRun.DCBreaker.State(), byGroup.DCBreaker.State())
		}
		if a, b := byRun.UPSSoC(), byGroup.UPSSoC(); a != b {
			t.Fatalf("tick %d: state of charge %v over runs, %v over groups", tick, a, b)
		}
		if a, b := byRun.MaxStress(), byGroup.MaxStress(); a != b {
			t.Fatalf("tick %d: stress %v over runs, %v over groups", tick, a, b)
		}
		if errRun != nil {
			runSteps, _, _ := byRun.Work()
			if groupSteps, _, _ := byGroup.Work(); runSteps >= groupSteps {
				t.Fatalf("stepping by runs took %d group steps, by groups %d", runSteps, groupSteps)
			}
			return
		}
	}
	t.Fatal("no breaker tripped; the overload is not exercised")
}
