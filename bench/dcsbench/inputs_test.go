package main

import (
	"reflect"
	"testing"
)

func TestReferenceInputsAreDeterministic(t *testing.T) {
	a, err := refDemands(42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := refDemands(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != refTicks || !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 42 gave %d then %d samples, equal=%v", len(a), len(b), reflect.DeepEqual(a, b))
	}
	if c, _ := refDemands(43); reflect.DeepEqual(a, c) {
		t.Error("seeds 42 and 43 gave identical demand")
	}
	// The duty cycle: 5 min idle, a 15 min burst to degree 3.2, 10 min of
	// recovery.
	peak := 0.0
	for i, d := range a {
		switch {
		case i < 300 || i >= 1200:
			if d > 1 {
				t.Fatalf("tick %d outside the burst has demand %v > 1", i, d)
			}
		default:
			peak = max(peak, d)
		}
	}
	if peak < 3 || peak > refDegree {
		t.Errorf("burst peak %v, want within [3, %v]", peak, refDegree)
	}

	items, err := campaignItems(41, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	again, err := campaignItems(41, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(items, again) || !reflect.DeepEqual(items[1].tr.Samples, a) {
		t.Error("campaign item i of seed s must carry the reference demand of seed s+i")
	}
}

func TestReferenceSpecIsTheDefaultPlant(t *testing.T) {
	if !reflect.DeepEqual(refSpec(), refSpec()) {
		t.Fatal("reference spec differs between calls")
	}
	eng, err := refEngine()
	if err != nil {
		t.Fatal(err)
	}
	sc := eng.Scenario()
	if sc.Trace != nil || sc.Servers != 2000 || sc.ServersPerPDU != 200 || sc.NoTES || sc.Strategy != nil || sc.Uncontrolled {
		t.Errorf("reference session is not an unbounded greedy session on the default plant: %+v", sc)
	}
}

func TestResimMatchesItself(t *testing.T) {
	d, err := refDemands(7)
	if err != nil {
		t.Fatal(err)
	}
	a, err := resim(d[:churnTicks])
	if err != nil {
		t.Fatal(err)
	}
	b, err := resim(d[:churnTicks])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) || a.Ticks != churnTicks {
		t.Fatalf("re-simulation is not deterministic (%d ticks)", a.Ticks)
	}
	ha, _ := resultHash(a)
	hb, _ := resultHash(b)
	if digest([][32]byte{ha}) != digest([][32]byte{hb}) {
		t.Error("equal results hash differently")
	}
}
