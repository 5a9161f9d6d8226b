package core

// Randomized safety properties: whatever demand sequence, strategy and
// supply conditions the controller faces, it must never trip a breaker,
// never overheat the room, and never report impossible deliveries.

import (
	"math/rand"
	"testing"
	"time"

	"dcsprint/internal/units"
)

// controllerSafetyRun drives a fresh facility through a random demand/supply
// sequence and checks every per-tick invariant.
func controllerSafetyRun(t *testing.T, seed int64, strategy Strategy, withSupplyDips bool) {
	t.Helper()
	controllerSafetyRunWeighted(t, seed, strategy, withSupplyDips, nil)
}

// controllerSafetyRunWeighted is controllerSafetyRun with per-PDU demand
// weights (nil = uniform).
func controllerSafetyRunWeighted(t *testing.T, seed int64, strategy Strategy, withSupplyDips bool, weights []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f := newFacility(t, facilityOpts{strategy: strategy, weights: weights})
	maxThr := f.ctl.cfg.Server.MaxThroughput()
	rated := f.tree.DCBreaker.Rated

	demand := 0.8
	for i := 0; i < 900; i++ {
		// A lazy random walk with occasional burst jumps.
		switch r := rng.Float64(); {
		case r < 0.02:
			demand = 1 + 2.6*rng.Float64() // burst
		case r < 0.04:
			demand = 0.4 + 0.5*rng.Float64() // lull
		default:
			demand += 0.1 * (rng.Float64() - 0.5)
		}
		if demand < 0 {
			demand = 0
		}
		in := Input{Demand: demand}
		if withSupplyDips && rng.Float64() < 0.05 {
			// Never below what the stores can bridge for a few ticks.
			in.SupplyLimit = units.Watts(float64(rated) * (0.55 + 0.4*rng.Float64()))
		}
		var res TickResult
		f.ctl.TickInput(in, time.Second, &res)
		if res.Tripped {
			t.Fatalf("seed %d: tripped at tick %d (demand %.2f)", seed, i, demand)
		}
		if res.RoomTemp >= 40 {
			t.Fatalf("seed %d: overheated at tick %d: %v", seed, i, res.RoomTemp)
		}
		if res.Delivered < 0 || res.Delivered > demand+1e-9 || res.Delivered > maxThr+1e-9 {
			t.Fatalf("seed %d: impossible delivery %v for demand %v", seed, res.Delivered, demand)
		}
		if res.Degree < 1 || res.Degree > 4+1e-9 {
			t.Fatalf("seed %d: degree %v out of range", seed, res.Degree)
		}
		if res.ActiveCores < 12 || res.ActiveCores > 48 {
			t.Fatalf("seed %d: cores %d out of range", seed, res.ActiveCores)
		}
	}
}

func TestControllerSafetyUnderRandomDemand(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		controllerSafetyRun(t, seed, nil, false)
	}
}

func TestControllerSafetyUnderRandomDemandAndSupply(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		controllerSafetyRun(t, seed, nil, true)
	}
}

func TestControllerSafetyUnderImbalanceAndSupply(t *testing.T) {
	// The hardest combination: skewed PDU demand plus random supply dips.
	weights := []float64{0.4, 0.8, 1.0, 1.2, 1.6}
	for seed := int64(1); seed <= 6; seed++ {
		controllerSafetyRunWeighted(t, seed, nil, true, weights)
	}
}

func TestControllerSafetyAcrossStrategies(t *testing.T) {
	strategies := []Strategy{
		Greedy{},
		FixedBound{Bound: 2.5},
		Heuristic{EstimatedAvgDegree: 2.2, Flexibility: 0.1},
	}
	for i, s := range strategies {
		controllerSafetyRun(t, int64(100+i), s, false)
	}
}
