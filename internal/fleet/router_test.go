package fleet

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"
)

// freshLedgers returns n fully-slack ledgers.
func freshLedgers(n int) []Ledger {
	out := make([]Ledger, n)
	for i := range out {
		out[i] = FreshLedger(dcName(i), 0, 0)
	}
	return out
}

func dcName(i int) string {
	return Spec{DCs: i + 1}.mustProfiles()[i].ID
}

// mustProfiles is a test helper unwrapping Profiles.
func (s Spec) mustProfiles() []Profile {
	ps, err := s.Profiles()
	if err != nil {
		panic(err)
	}
	return ps
}

func TestPlaceHomeServesWhenHealthy(t *testing.T) {
	r := NewRouter(RouterConfig{Seed: 7, Replicas: 2})
	ledgers := freshLedgers(5)
	p := r.Place("k", 3, ledgers)
	if p.Rejected || p.Spilled || p.Primary != ledgers[3].DC {
		t.Fatalf("healthy home not served: %+v", p)
	}
	if len(p.Replicas) != 2 {
		t.Fatalf("replicas = %v, want 2", p.Replicas)
	}
	seen := map[string]bool{p.Primary: true}
	for _, rep := range p.Replicas {
		if seen[rep] {
			t.Fatalf("co-located replica %q in %+v", rep, p)
		}
		seen[rep] = true
	}
}

func TestPlaceSpillsToMostSlack(t *testing.T) {
	r := NewRouter(RouterConfig{Seed: 1, HopRTT: 10 * time.Millisecond, HopCost: 2})
	ledgers := freshLedgers(4)
	ledgers[0].Dead = true // exhausted home
	// Make dc-2 clearly the slackest sibling, outside the tie band.
	ledgers[1].BreakerHeadroom = 0.5
	ledgers[3].BreakerHeadroom = 0.5
	p := r.Place("k", 0, ledgers)
	if !p.Spilled || p.Primary != ledgers[2].DC || p.SpilledFrom != ledgers[0].DC {
		t.Fatalf("spill went to %+v, want %s", p, ledgers[2].DC)
	}
	// dc-0 -> dc-2 is 2 ring hops.
	if p.TransferLatency != 20*time.Millisecond || p.TransferCost != 4 {
		t.Fatalf("transfer = %v/%v, want 20ms/4", p.TransferLatency, p.TransferCost)
	}
}

func TestPlaceRejectsWhenAllExhausted(t *testing.T) {
	r := NewRouter(RouterConfig{Seed: 1})
	ledgers := freshLedgers(3)
	for i := range ledgers {
		ledgers[i].BreakerHeadroom = 0.01
	}
	p := r.Place("k", 1, ledgers)
	if !p.Rejected || p.Primary != "" {
		t.Fatalf("want rejection, got %+v", p)
	}
	if r.Rejected() != 1 || r.Routed() != 0 {
		t.Fatalf("counters routed=%d rejected=%d, want 0/1", r.Routed(), r.Rejected())
	}
}

func TestReplicasNeverColocatedEvenWhenTight(t *testing.T) {
	// 3 DCs, k=2: replicas must use both remaining DCs even though one
	// of them is exhausted (fallback pass) — but never a dead one.
	r := NewRouter(RouterConfig{Seed: 3, Replicas: 2})
	ledgers := freshLedgers(3)
	ledgers[1].BreakerHeadroom = 0.01 // exhausted, still alive
	p := r.Place("k", 0, ledgers)
	if len(p.Replicas) != 2 {
		t.Fatalf("replicas = %v, want both siblings", p.Replicas)
	}
	ledgers[1].Dead = true
	p = r.Place("k2", 0, ledgers)
	if len(p.Replicas) != 1 || p.Replicas[0] != ledgers[2].DC {
		t.Fatalf("replicas = %v, want only the live sibling", p.Replicas)
	}
}

func TestRouterDecisionLogDeterminism(t *testing.T) {
	mk := func() []Placement {
		r := NewRouter(RouterConfig{Seed: 42, Replicas: 1})
		ledgers := freshLedgers(8)
		ledgers[0].BreakerHeadroom = 0.01
		var log []Placement
		for i := 0; i < 64; i++ {
			log = append(log, r.Place("k", i%len(ledgers), ledgers))
		}
		return log
	}
	if !reflect.DeepEqual(mk(), mk()) {
		t.Fatal("same seed + same call order produced different placement logs")
	}
}

// TestFleetRunDeterminism is the rerun bit-identity guarantee: the same spec
// must produce byte-identical Results (placement log included) on a rerun.
func TestFleetRunDeterminism(t *testing.T) {
	spec := Spec{
		DCs: 8, Seed: 1234, Replicas: 1, HotDC: 0, AdmitCap: 1,
		Ticks: 400, Bursts: 8, BurstDegree: 1.8, BurstTicks: 120,
	}
	run := func() *Result {
		f, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(context.Background(), RunOptions{Coordinated: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first, rerun := run(), run()
	if !reflect.DeepEqual(first, rerun) {
		t.Fatalf("rerun diverged:\n%+v\n%+v", first, rerun)
	}
	if first.Spilled == 0 {
		t.Fatal("hot-DC scenario produced no spills; determinism test lost its teeth")
	}
}

// TestFleetCoordinationDominates pins the E16 headline on one seed:
// coordinated sprinting survives strictly more bursts at no worse breaker
// stress and no worse thermal margin than independent per-DC sprinting.
func TestFleetCoordinationDominates(t *testing.T) {
	spec := Spec{
		DCs: 8, Seed: 1, Replicas: 1, HotDC: 0, AdmitCap: 1,
		Ticks: 600, Bursts: 8, BurstDegree: 1.8, BurstTicks: 150,
	}
	run := func(coord bool) *Result {
		f, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(context.Background(), RunOptions{Coordinated: coord})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	coord, indep := run(true), run(false)
	t.Logf("coordinated: survived=%d/%d stress=%.4f margin=%.4f", coord.Survived, coord.Bursts, coord.WorstBreakerStress, coord.WorstThermalMarginC)
	t.Logf("independent: survived=%d/%d stress=%.4f margin=%.4f", indep.Survived, indep.Bursts, indep.WorstBreakerStress, indep.WorstThermalMarginC)
	if coord.Survived <= indep.Survived {
		t.Fatalf("coordination did not raise burst survival: %d <= %d", coord.Survived, indep.Survived)
	}
	if coord.WorstBreakerStress > indep.WorstBreakerStress {
		t.Fatalf("coordination raised worst breaker stress: %v > %v", coord.WorstBreakerStress, indep.WorstBreakerStress)
	}
	if coord.WorstThermalMarginC < indep.WorstThermalMarginC {
		t.Fatalf("coordination lowered worst thermal margin: %v < %v", coord.WorstThermalMarginC, indep.WorstThermalMarginC)
	}
}

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec("dcs=64, replicas=1, hot=0, cap=8, seed=42, hop-rtt=10ms, hop-cost=2.5")
	if err != nil {
		t.Fatal(err)
	}
	if s.DCs != 64 || s.Replicas != 1 || s.HotDC != 0 || s.AdmitCap != 8 ||
		s.Seed != 42 || s.HopRTT != 10*time.Millisecond || s.HopCost != 2.5 {
		t.Fatalf("parsed %+v", s)
	}
	if s.Ticks == 0 || s.Bursts == 0 {
		t.Fatalf("fill did not default sim knobs: %+v", s)
	}
	for _, bad := range []string{"", "dcs=0", "replicas=2,dcs=2", "dcs=4,hot=4", "dcs=x", "nope=1", "dcs"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// TestParseSpecRejectsBadPricing pins the range checks fill applies to the
// hop price and the admission cap: a NaN or infinite hop cost would poison
// every spill comparison, and a negative RTT, cost or cap has no meaning.
func TestParseSpecRejectsBadPricing(t *testing.T) {
	for _, bad := range []string{
		"dcs=2,hop-cost=NaN",
		"dcs=2,hop-cost=+Inf",
		"dcs=2,hop-cost=-Inf",
		"dcs=2,hop-cost=-1",
		"dcs=2,hop-rtt=-5s",
		"dcs=2,cap=-1",
	} {
		if s, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted: %+v", bad, s)
		}
	}
	if _, err := (Spec{DCs: 2, HotDC: -1, HopCost: math.NaN()}).Profiles(); err == nil {
		t.Error("Profiles accepted a NaN hop cost")
	}
	// The boundary values stay legal: zero takes the router defaults.
	if _, err := ParseSpec("dcs=2,hop-cost=0,hop-rtt=0s,cap=0"); err != nil {
		t.Errorf("zero pricing rejected: %v", err)
	}
}

func TestProfilesHotDC(t *testing.T) {
	ps, err := Spec{DCs: 4, Seed: 9, HotDC: 2, AdmitCap: 8}.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		if p.Servers%200 != 0 {
			t.Fatalf("%s servers %d not whole PDUs", p.ID, p.Servers)
		}
		if i == 2 {
			if !p.Hot || p.AdmitCap != 1 {
				t.Fatalf("hot DC not starved: %+v", p)
			}
		} else if p.Hot || p.AdmitCap != 8 {
			t.Fatalf("cold DC mis-shaped: %+v", p)
		}
	}
}

// FuzzParseSpec checks that arbitrary -fleet input never panics the parser,
// and that every accepted spec is a fixed point of fill: filling it again
// neither fails nor changes it.
func FuzzParseSpec(f *testing.F) {
	f.Add("dcs=64, replicas=1, hot=0, cap=8, seed=42, hop-rtt=10ms, hop-cost=2.5")
	f.Add("dcs=2")
	f.Add("dcs=2,hop-cost=NaN")
	f.Add("dcs=2,hop-rtt=-5s,cap=-1")
	f.Add("dcs=3,replicas=-4,hot=-7,seed=0")
	f.Add("dcs")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		s, err := ParseSpec(input)
		if err != nil {
			return
		}
		again := s
		if err := again.fill(); err != nil {
			t.Fatalf("accepted spec %+v fails fill: %v", s, err)
		}
		if again != s {
			t.Fatalf("fill changed accepted spec %+v to %+v", s, again)
		}
	})
}
