package dcsprint

// This file is the fleet facade: the geo-distributed control plane layered
// above the per-DC service. A Fleet hosts N capacity-heterogeneous simulated
// data centres; the Router admits bursts against per-DC capacity ledgers,
// places replicas off the primary, and spills sprints from exhausted sites
// to the sibling with the most headroom, charging ring-hop transfer latency
// and cost. See DESIGN.md's "Fleet control plane" section, internal/fleet
// for the engine, and FleetContext (E16) for the coordinated-vs-independent
// comparison.

import (
	"context"

	"dcsprint/internal/fleet"
)

type (
	// FleetSpec sizes and seeds a fleet: DC count, replica degree, hot-DC
	// skew, admission caps and the burst schedule; see fleet.Spec.
	FleetSpec = fleet.Spec
	// FleetProfile is one DC's generated capacity profile; see
	// fleet.Profile.
	FleetProfile = fleet.Profile
	// FleetBurst is one scheduled sprint demand burst; see fleet.Burst.
	FleetBurst = fleet.Burst
	// FleetLedger is a DC's folded capacity ledger — the router's input;
	// see fleet.Ledger.
	FleetLedger = fleet.Ledger
	// FleetPlacement is one routing decision: primary, replicas, spill
	// provenance and transfer charges; see fleet.Placement.
	FleetPlacement = fleet.Placement
	// FleetRunOptions selects coordinated routing vs independent
	// sprinting; see fleet.RunOptions.
	FleetRunOptions = fleet.RunOptions
	// FleetResult is one fleet run's outcome; see fleet.Result.
	FleetResult = fleet.Result
	// FleetDCResult is one DC's slice of a FleetResult; see
	// fleet.DCResult.
	FleetDCResult = fleet.DCResult
)

// NewFleet builds a simulation fleet from spec: one engine per generated DC
// profile, ready for Run; see fleet.New.
func NewFleet(spec FleetSpec) (*fleet.Fleet, error) { return fleet.New(spec) }

// ParseFleetSpec parses the dcsprintd -fleet flag syntax
// ("dcs=64,replicas=1,hot=0,cap=8,seed=1"); see fleet.ParseSpec.
func ParseFleetSpec(s string) (FleetSpec, error) { return fleet.ParseSpec(s) }

// Fleet runs FleetContext with a background context and default campaign
// options; see FleetContext.
func Fleet(seeds int) (*FleetComparison, error) {
	return FleetContext(context.Background(), CampaignOptions{}, seeds)
}
