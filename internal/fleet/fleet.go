// Package fleet is the geo-distributed control plane layered above
// internal/service and internal/sim: a Fleet hosts N simulated data
// centres, each a capacity-heterogeneous profile wrapping its own engines,
// and a Router does burst admission, replication-aware placement (primary
// plus k replicas never co-located in one DC) and cross-DC sprint
// coordination. A per-DC capacity ledger — breaker, UPS, TES and thermal
// headroom derived from the existing plant probe — drives a deterministic,
// seeded placement policy that spills load from a DC whose ledger is
// exhausted to the sibling with the most headroom, with inter-DC transfer
// latency and cost modeled as ring-hop distance.
//
// The package has two faces over the same ledger and router:
//
//   - the simulation fleet (New/Run): N sim.Engines stepped in lockstep
//     under a seeded burst schedule, bit-identical serial or parallel —
//     the substrate of the E16 experiment and the determinism tests;
//   - the daemon Host: the -fleet mode of dcsprintd, a client of one
//     service.Manager that routes live sessions across DC profiles, frees
//     a DC slot once the manager no longer hosts its session, reads the
//     placed sessions' plant state through Manager.Probes once per fold,
//     and folds per-DC ledgers into fleet.*{dc="..."} time series.
package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"
)

// Profile is one data centre's static capacity shape. The fleet is
// deliberately heterogeneous: siblings differ in server count, breaker
// headroom and store sizes, so headroom is a property of a particular DC
// at a particular time, never a fleet-wide constant.
type Profile struct {
	// ID names the DC ("dc-07").
	ID string
	// Servers sizes the DC's facility.
	Servers int
	// Headroom is the DC breaker provisioning headroom fraction.
	Headroom float64
	// TESMinutes sizes the DC's thermal store.
	TESMinutes float64
	// BatteryAh sizes the DC's UPS string; 0 keeps the simulator default.
	BatteryAh float64
	// AdmitCap is the DC's admission-slot cap (sessions or bursts); 0
	// means uncapped.
	AdmitCap int
	// Hot marks the forced-hot DC: capacity-starved so that load homed
	// here exercises the spill path.
	Hot bool
}

// Spec sizes a fleet. The zero value is not valid; fill DCs at least.
type Spec struct {
	// DCs is the data-centre count.
	DCs int
	// Seed seeds profile heterogeneity, the burst schedule and the
	// router's tie-break RNG.
	Seed int64
	// Replicas is k: each load unit gets a primary plus k replica
	// placements on distinct DCs. Must be < DCs.
	Replicas int
	// HotDC is the index of a forced-hot DC (tiny admission cap, thin
	// headroom and stores), or -1 for none.
	HotDC int
	// AdmitCap is the per-DC admission-slot cap; 0 means uncapped. The
	// hot DC's cap is clamped to 1 regardless.
	AdmitCap int
	// HopRTT and HopCost price one ring hop of inter-DC transfer.
	// Zero takes the router defaults (5ms, 1).
	HopRTT  time.Duration
	HopCost float64

	// Simulation-fleet knobs (ignored by the daemon Host):

	// Ticks is the run length in one-second ticks. Zero means 900.
	Ticks int
	// Bursts is how many bursts the seeded schedule generates. Zero
	// means 10.
	Bursts int
	// BurstDegree is the schedule's mean burst height. Zero means 3.0.
	BurstDegree float64
	// BurstTicks is the mean burst duration in ticks. Zero means 240.
	BurstTicks int
	// HotBias is the fraction of bursts homed on the hot DC (the rest
	// spread uniformly). Zero means 0.6 when HotDC >= 0.
	HotBias float64
}

func (s *Spec) fill() error {
	if s.DCs < 1 {
		return fmt.Errorf("fleet: need at least 1 DC, got %d", s.DCs)
	}
	if s.Replicas < 0 {
		s.Replicas = 0
	}
	if s.Replicas >= s.DCs {
		return fmt.Errorf("fleet: %d replicas need more than %d DCs (primary + replicas span distinct DCs)", s.Replicas, s.DCs)
	}
	if s.HotDC >= s.DCs {
		return fmt.Errorf("fleet: hot DC %d outside fleet of %d", s.HotDC, s.DCs)
	}
	if s.AdmitCap < 0 {
		return fmt.Errorf("fleet: admission cap %d is negative", s.AdmitCap)
	}
	if s.HopRTT < 0 {
		return fmt.Errorf("fleet: hop RTT %v is negative", s.HopRTT)
	}
	if math.IsNaN(s.HopCost) || math.IsInf(s.HopCost, 0) || s.HopCost < 0 {
		return fmt.Errorf("fleet: hop cost %v must be finite and non-negative", s.HopCost)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Ticks <= 0 {
		s.Ticks = 900
	}
	if s.Bursts <= 0 {
		s.Bursts = 10
	}
	if s.BurstDegree <= 0 {
		s.BurstDegree = 3.0
	}
	if s.BurstTicks <= 0 {
		s.BurstTicks = 240
	}
	if s.Ticks < 4 {
		s.Ticks = 4
	}
	if s.HotBias <= 0 && s.HotDC >= 0 {
		s.HotBias = 0.6
	}
	return nil
}

// Profiles expands the spec into its DC profiles: seeded heterogeneous
// capacity (servers, headroom, TES, battery) with the hot DC, if any,
// capacity-starved. Deterministic for a fixed spec.
func (s Spec) Profiles() ([]Profile, error) {
	if err := s.fill(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.Seed))
	out := make([]Profile, s.DCs)
	for i := range out {
		p := Profile{
			ID:         fmt.Sprintf("dc-%02d", i),
			Servers:    1600 + rng.Intn(4)*400,     // 1600..2800, whole PDUs
			Headroom:   0.06 + rng.Float64()*0.08,  // 6%..14%
			TESMinutes: 8 + float64(rng.Intn(5))*3, // 8..20 min
			BatteryAh:  0,                          // simulator default string
			AdmitCap:   s.AdmitCap,
		}
		if i == s.HotDC {
			// The forced-hot DC: one admission slot, thin headroom, a
			// nearly-empty thermal store. Anything beyond its first load
			// unit must spill or degrade.
			p.Hot = true
			p.AdmitCap = 1
			p.Headroom = 0.03
			p.TESMinutes = 2
			p.Servers = 1600
		}
		out[i] = p
	}
	return out, nil
}

// Burst is one unit of the seeded burst schedule: extra demand that lands
// on a home DC (or wherever the router sends it) for a window of ticks.
type Burst struct {
	// At is the arrival tick.
	At int
	// Ticks is the burst duration.
	Ticks int
	// Degree is the demand the burst requires of its serving DC (the DC's
	// demand becomes 1 + Σ active (Degree−1)).
	Degree float64
	// Home is the index of the DC the burst prefers.
	Home int
}

// Schedule generates the spec's seeded burst schedule: arrivals spread
// over the first half of the run, degrees around BurstDegree, and — when a
// hot DC is configured — HotBias of the bursts homed on it. Deterministic
// for a fixed spec.
func (s Spec) Schedule() ([]Burst, error) {
	if err := s.fill(); err != nil {
		return nil, err
	}
	// A distinct stream from Profiles' so adding a profile field never
	// silently reshuffles the schedule.
	rng := rand.New(rand.NewSource(s.Seed ^ 0x5eed))
	out := make([]Burst, s.Bursts)
	for i := range out {
		b := Burst{
			At:     rng.Intn(s.Ticks / 2),
			Ticks:  s.BurstTicks/2 + rng.Intn(s.BurstTicks),
			Degree: s.BurstDegree - 0.4 + rng.Float64()*0.8,
			Home:   rng.Intn(s.DCs),
		}
		if s.HotDC >= 0 && rng.Float64() < s.HotBias {
			b.Home = s.HotDC
		}
		if b.At+b.Ticks > s.Ticks {
			b.Ticks = s.Ticks - b.At
		}
		out[i] = b
	}
	return out, nil
}

// ParseSpec parses the dcsprintd -fleet flag: comma-separated key=value
// pairs, e.g. "dcs=64,replicas=1,hot=0,cap=8,seed=42". Keys: dcs
// (required), replicas, hot (DC index, default none), cap (per-DC
// admission slots), seed, hop-rtt (duration), hop-cost.
func ParseSpec(flag string) (Spec, error) {
	s := Spec{HotDC: -1}
	for _, part := range strings.Split(flag, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return s, fmt.Errorf("fleet: spec %q: want key=value", part)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "dcs":
			s.DCs, err = strconv.Atoi(val)
		case "replicas":
			s.Replicas, err = strconv.Atoi(val)
		case "hot":
			s.HotDC, err = strconv.Atoi(val)
		case "cap":
			s.AdmitCap, err = strconv.Atoi(val)
		case "seed":
			s.Seed, err = strconv.ParseInt(val, 10, 64)
		case "hop-rtt":
			s.HopRTT, err = time.ParseDuration(val)
		case "hop-cost":
			s.HopCost, err = strconv.ParseFloat(val, 64)
		default:
			return s, fmt.Errorf("fleet: spec key %q unknown (want dcs, replicas, hot, cap, seed, hop-rtt, hop-cost)", key)
		}
		if err != nil {
			return s, fmt.Errorf("fleet: spec %s=%q: %w", key, val, err)
		}
	}
	if s.DCs < 1 {
		return s, fmt.Errorf("fleet: spec needs dcs >= 1")
	}
	if err := s.fill(); err != nil {
		return s, err
	}
	return s, nil
}
