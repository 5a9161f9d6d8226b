package dcsprint

import (
	"context"
	"reflect"
	"testing"
)

// TestChaosInvariants replays a reduced chaos sweep (E15) serially and on
// four workers, requires identical rows, and asserts the graceful-degradation
// contract: no random fault campaign may trip a breaker, overheat the room,
// or leave the facility down — faults may only reduce the excess work served
// below the supervised healthy baseline.
func TestChaosInvariants(t *testing.T) {
	campaigns := 12
	if testing.Short() {
		campaigns = 4
	}
	rows, err := Chaos(context.Background(), CampaignOptions{Workers: 1}, 1, campaigns)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Chaos(context.Background(), CampaignOptions{Workers: 4}, 1, campaigns)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, parallel) {
		t.Fatalf("Chaos rows depend on the worker count:\nWorkers 1: %+v\nWorkers 4: %+v", rows, parallel)
	}
	if len(rows) != 5 {
		t.Fatalf("Chaos covered %d strategies, want 5", len(rows))
	}
	for _, r := range rows {
		if r.Trips != 0 {
			t.Errorf("%s: %d campaigns tripped a breaker", r.Strategy, r.Trips)
		}
		if r.Overheats != 0 {
			t.Errorf("%s: %d campaigns overheated the room", r.Strategy, r.Overheats)
		}
		if r.Deaths != 0 {
			t.Errorf("%s: %d campaigns ended with the facility down", r.Strategy, r.Deaths)
		}
		if r.HealthyExcess <= 0 {
			t.Errorf("%s: healthy baseline served no excess (%.2f)", r.Strategy, r.HealthyExcess)
		}
		// Every campaign carries a capacity-reducing battery fault, so the
		// degraded runs must serve less excess than the healthy baseline.
		if r.MeanDegradedExcess >= r.HealthyExcess {
			t.Errorf("%s: mean degraded excess %.2f not below healthy %.2f",
				r.Strategy, r.MeanDegradedExcess, r.HealthyExcess)
		}
		if r.WorstDegradedExcess > r.HealthyExcess*1.001 {
			t.Errorf("%s: worst degraded excess %.2f above healthy %.2f",
				r.Strategy, r.WorstDegradedExcess, r.HealthyExcess)
		}
		if r.MinTripMargin <= 0 {
			t.Errorf("%s: trip margin %.3g not positive", r.Strategy, r.MinTripMargin)
		}
	}
}
