package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"dcsprint/internal/service"
	"dcsprint/internal/sim"
	"dcsprint/internal/telemetry"
	"dcsprint/internal/tsdb"
)

// ErrFleetExhausted reports every DC ledger in the fleet is exhausted: the
// router admits nothing and the caller should back off and retry.
var ErrFleetExhausted = errors.New("fleet: every DC ledger exhausted")

// hostSeries is the per-DC fold family the host appends each cadence.
var hostSeries = []string{
	tsdb.SeriesFleetSessions,
	tsdb.SeriesFleetWorstStress,
	tsdb.SeriesFleetWorstThermal,
	tsdb.SeriesFleetMinUPSSoC,
}

// binding ties a live session to its serving DC and retains the session's
// latest plant probe — the daemon-side ledger feed. The host's refresh loop
// pulls Manager.Probes, each session's Engine.Plant read under its session
// lock, and writes the results here on the FoldEvery cadence, so the step
// hot path pays nothing for the fleet control plane. Every field is
// guarded by Host.mu.
type binding struct {
	dc   int // serving DC index; -1 until bound (or never, for non-fleet sessions)
	last sim.PlantSample
	have bool
	dead bool
}

// hostDC is one data centre of the daemon fleet: its profile, admission
// bookkeeping, and per-DC fold series handles.
type hostDC struct {
	profile   Profile
	sessions  int
	spillsIn  int64
	spillsOut int64
	series    []*tsdb.Series
}

// HostConfig sizes a Host.
type HostConfig struct {
	// Spec shapes the fleet (DC count, seed, replicas, hot DC, caps).
	Spec Spec
	// Registry receives the router metrics. Nil disables them.
	Registry *telemetry.Registry
	// Flight receives fleet-spill and fleet-reject events. Nil disables.
	Flight *telemetry.FlightRecorder
	// Store receives the per-DC fleet.*{dc="..."} folds. Nil disables.
	Store *tsdb.Store
	// FoldEvery is the per-DC fold cadence. Zero means 1 second.
	FoldEvery time.Duration
}

// Host is the daemon face of the fleet control plane: it implements
// service.PlantTap to keep per-DC ledgers fed from live engines, routes
// session creation across DC profiles through the Router, and folds the
// ledgers into per-DC time series. Wire it as the manager's Tap, then
// AttachManager once the manager exists.
type Host struct {
	cfg      HostConfig
	profiles []Profile

	mu       sync.Mutex // guards router, bindings and their fields, dcs bookkeeping, rr
	router   *Router
	mgr      *service.Manager
	bindings map[string]*binding
	dcs      []*hostDC
	rr       int

	stop chan struct{}
	wg   sync.WaitGroup

	mDCs      *telemetry.Gauge
	mRouted   *telemetry.Counter
	mSpills   *telemetry.Counter
	mRejected *telemetry.Counter
}

// NewHost builds a host fleet from cfg and starts its fold loop.
func NewHost(cfg HostConfig) (*Host, error) {
	profiles, err := cfg.Spec.Profiles()
	if err != nil {
		return nil, err
	}
	if cfg.FoldEvery <= 0 {
		cfg.FoldEvery = time.Second
	}
	h := &Host{
		cfg:      cfg,
		profiles: profiles,
		router: NewRouter(RouterConfig{
			Seed:     cfg.Spec.Seed,
			Replicas: cfg.Spec.Replicas,
			HopRTT:   cfg.Spec.HopRTT,
			HopCost:  cfg.Spec.HopCost,
		}),
		bindings: make(map[string]*binding),
		dcs:      make([]*hostDC, len(profiles)),
		stop:     make(chan struct{}),
	}
	for i, p := range profiles {
		d := &hostDC{profile: p}
		if cfg.Store != nil {
			// A store at its MaxSeries cap returns nil handles, which
			// Append discards — a tiny store degrades folds, not routing.
			d.series = make([]*tsdb.Series, len(hostSeries))
			for j, base := range hostSeries {
				d.series[j] = cfg.Store.Series(tsdb.DCSeriesName(base, p.ID))
			}
		}
		h.dcs[i] = d
	}
	if reg := cfg.Registry; reg != nil {
		h.mDCs = reg.Gauge("dcsprint_fleet_dcs", "Data centres in the fleet")
		h.mDCs.Set(float64(len(profiles)))
		h.mRouted = reg.Counter("dcsprint_fleet_routed_total", "Sessions placed by the fleet router")
		h.mSpills = reg.Counter("dcsprint_fleet_spills_total", "Sessions spilled off their home DC")
		h.mRejected = reg.Counter("dcsprint_fleet_rejected_total", "Sessions rejected with every ledger exhausted")
		for _, p := range profiles {
			reg.GaugeWith("dcsprint_fleet_dc_sessions",
				"Live sessions served by the DC", telemetry.Labels{"dc": p.ID})
		}
	}
	// The fold loop runs even without a Store: it is also the probe refresh
	// that keeps the ledgers fed from the manager's live engines.
	h.wg.Add(1)
	go h.foldLoop()
	return h, nil
}

// AttachManager hands the host the manager it routes into. The manager must
// have been built with the host as its Config.Tap.
func (h *Host) AttachManager(m *service.Manager) {
	h.mu.Lock()
	h.mgr = m
	h.mu.Unlock()
}

// Profiles returns the host fleet's DC profiles.
func (h *Host) Profiles() []Profile { return h.profiles }

// Close stops the fold loop. The manager is closed by its own owner.
func (h *Host) Close() {
	close(h.stop)
	h.wg.Wait()
}

// Session implements service.PlantTap: every installed session gets a
// binding that the probe refresh fills from Manager.Probes. The serving DC
// is bound right after Create returns; sessions created outside the fleet
// API stay unbound and never feed a ledger.
func (h *Host) Session(id string) {
	b := &binding{dc: -1}
	h.mu.Lock()
	h.bindings[id] = b
	h.mu.Unlock()
}

// Drop implements service.PlantTap.
func (h *Host) Drop(id string) {
	h.mu.Lock()
	if b := h.bindings[id]; b != nil {
		delete(h.bindings, id)
		if b.dc >= 0 {
			h.dcs[b.dc].sessions--
		}
	}
	h.mu.Unlock()
}

// ledgersLocked derives the current per-DC ledgers. Caller holds h.mu.
func (h *Host) ledgersLocked() []Ledger {
	out := make([]Ledger, len(h.dcs))
	for i, d := range h.dcs {
		out[i] = FreshLedger(d.profile.ID, d.sessions, d.profile.AdmitCap)
	}
	for _, b := range h.bindings {
		if b.dc < 0 || !b.have {
			continue
		}
		m := LedgerOf(h.dcs[b.dc].profile.ID, b.last)
		// A member riding its breaker accumulator to the trip point has
		// taken the facility down: the DC admits nothing until it clears.
		m.Dead = b.dead || b.last.BreakerStress >= 1
		out[b.dc].Fold(m)
	}
	return out
}

// refreshProbes pulls the latest per-session plant state out of the
// manager's live engines and writes it into the bindings — the ledger
// feed's only sample source.
func (h *Host) refreshProbes() {
	h.mu.Lock()
	mgr := h.mgr
	h.mu.Unlock()
	if mgr == nil {
		return
	}
	probes := mgr.Probes()
	h.mu.Lock()
	for _, p := range probes {
		b := h.bindings[p.ID]
		if b == nil {
			continue
		}
		b.last, b.have, b.dead = p.Sample, true, p.Dead
	}
	h.mu.Unlock()
}

// RoutedSession is the fleet create response: the session plus where the
// router put it.
type RoutedSession struct {
	service.Session
	// DC serves the session; Replicas hold its standby shards.
	DC       string   `json:"dc"`
	Replicas []string `json:"replicas,omitempty"`
	// Spilled, SpilledFrom and TransferMs report a home-DC spill.
	Spilled     bool    `json:"spilled,omitempty"`
	SpilledFrom string  `json:"spilled_from,omitempty"`
	TransferMs  float64 `json:"transfer_ms,omitempty"`
}

// CreateSession routes a session across the fleet and opens it on the
// serving DC: home DCs rotate round-robin, the router spills or rejects by
// ledger, and the serving DC's facility profile (servers, headroom, TES,
// battery) overrides the spec — a session inherits the plant it lands on.
func (h *Host) CreateSession(spec service.ScenarioSpec) (*RoutedSession, error) {
	h.mu.Lock()
	mgr := h.mgr
	if mgr == nil {
		h.mu.Unlock()
		return nil, errors.New("fleet: host has no manager attached")
	}
	home := h.rr % len(h.dcs)
	h.rr++
	ledgers := h.ledgersLocked()
	p := h.router.Place(fmt.Sprintf("create-%d", h.rr), home, ledgers)
	if p.Rejected {
		h.mu.Unlock()
		if h.mRejected != nil {
			h.mRejected.Inc()
		}
		h.flight(telemetry.EventFleetReject, "", "home="+p.Home)
		return nil, ErrFleetExhausted
	}
	serving := h.dcIndex(p.Primary)
	h.dcs[serving].sessions++ // reserve the slot before dropping the lock
	if p.Spilled {
		h.dcs[serving].spillsIn++
		h.dcs[home].spillsOut++
	}
	profile := h.dcs[serving].profile
	h.mu.Unlock()

	if spec.Servers == 0 {
		spec.Servers = profile.Servers
	}
	spec.DCHeadroom = profile.Headroom
	spec.TESMinutes = profile.TESMinutes
	spec.BatteryAh = profile.BatteryAh

	sess, err := mgr.Create(spec)
	if err != nil {
		h.mu.Lock()
		h.dcs[serving].sessions--
		if p.Spilled {
			h.dcs[serving].spillsIn--
			h.dcs[home].spillsOut--
		}
		h.mu.Unlock()
		return nil, err
	}
	h.mu.Lock()
	if b := h.bindings[sess.ID]; b != nil {
		b.dc = serving
	}
	h.mu.Unlock()
	if h.mRouted != nil {
		h.mRouted.Inc()
	}
	if p.Spilled {
		if h.mSpills != nil {
			h.mSpills.Inc()
		}
		h.flight(telemetry.EventFleetSpill, sess.ID,
			fmt.Sprintf("%s->%s", p.SpilledFrom, p.Primary))
	}
	return &RoutedSession{
		Session:     *sess,
		DC:          p.Primary,
		Replicas:    p.Replicas,
		Spilled:     p.Spilled,
		SpilledFrom: p.SpilledFrom,
		TransferMs:  float64(p.TransferLatency) / float64(time.Millisecond),
	}, nil
}

func (h *Host) flight(kind, session, detail string) {
	if h.cfg.Flight == nil {
		return
	}
	h.cfg.Flight.Record(-1, telemetry.FlightEvent{Kind: kind, Session: session, Detail: detail})
}

func (h *Host) dcIndex(id string) int {
	for i, d := range h.dcs {
		if d.profile.ID == id {
			return i
		}
	}
	return -1
}

// foldLoop refreshes the ledger probes from the manager's live engines and
// appends the per-DC ledger folds on the FoldEvery cadence.
func (h *Host) foldLoop() {
	defer h.wg.Done()
	t := time.NewTicker(h.cfg.FoldEvery)
	defer t.Stop()
	for {
		select {
		case <-h.stop:
			return
		case now := <-t.C:
			h.refreshProbes()
			ts := now.UnixMilli()
			h.mu.Lock()
			ledgers := h.ledgersLocked()
			h.mu.Unlock()
			for i, l := range ledgers {
				d := h.dcs[i]
				if d.series == nil {
					continue
				}
				vals := [...]float64{
					float64(l.Sessions),
					1 - l.BreakerHeadroom,
					l.ThermalMarginC,
					l.UPSSoC,
				}
				for j, s := range d.series {
					s.Append(ts, vals[j])
				}
				if reg := h.cfg.Registry; reg != nil {
					reg.GaugeWith("dcsprint_fleet_dc_sessions",
						"Live sessions served by the DC",
						telemetry.Labels{"dc": l.DC}).Set(float64(l.Sessions))
				}
			}
		}
	}
}

// DCStatus is one DC's row of the fleet status document.
type DCStatus struct {
	ID             string  `json:"id"`
	Servers        int     `json:"servers"`
	Hot            bool    `json:"hot,omitempty"`
	Sessions       int     `json:"sessions"`
	Capacity       int     `json:"capacity,omitempty"`
	SpillsIn       int64   `json:"spills_in"`
	SpillsOut      int64   `json:"spills_out"`
	Slack          float64 `json:"slack"`
	Exhausted      bool    `json:"exhausted"`
	BreakerStress  float64 `json:"breaker_stress"`
	ThermalMarginC float64 `json:"thermal_margin_c"`
	UPSSoC         float64 `json:"ups_soc"`
	Dead           bool    `json:"dead,omitempty"`
}

// FleetStatus is the GET /v1/fleet document.
type FleetStatus struct {
	DCs      []DCStatus `json:"dcs"`
	Sessions int        `json:"sessions"`
	Routed   int64      `json:"routed"`
	Spilled  int64      `json:"spilled"`
	Rejected int64      `json:"rejected"`
}

// Status derives the current fleet status document.
func (h *Host) Status() FleetStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	ledgers := h.ledgersLocked()
	st := FleetStatus{
		Routed:   h.router.Routed(),
		Spilled:  h.router.Spilled(),
		Rejected: h.router.Rejected(),
	}
	for i, l := range ledgers {
		d := h.dcs[i]
		st.Sessions += l.Sessions
		st.DCs = append(st.DCs, DCStatus{
			ID:             l.DC,
			Servers:        d.profile.Servers,
			Hot:            d.profile.Hot,
			Sessions:       l.Sessions,
			Capacity:       l.Capacity,
			SpillsIn:       d.spillsIn,
			SpillsOut:      d.spillsOut,
			Slack:          l.Slack(),
			Exhausted:      l.Exhausted(),
			BreakerStress:  1 - l.BreakerHeadroom,
			ThermalMarginC: l.ThermalMarginC,
			UPSSoC:         l.UPSSoC,
			Dead:           l.Dead,
		})
	}
	return st
}

// Handler returns the fleet API:
//
//	POST /v1/fleet/sessions   route + open a session (ScenarioSpec in,
//	                          RoutedSession out; 429 when exhausted)
//	GET  /v1/fleet            fleet status (per-DC ledgers + totals)
func (h *Host) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/fleet/sessions", h.handleCreate)
	mux.HandleFunc("GET /v1/fleet", h.handleStatus)
	return mux
}

func (h *Host) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec service.ScenarioSpec
	if err := service.DecodeBody(w, r, &spec); err != nil {
		status := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			status = http.StatusRequestEntityTooLarge
		}
		writeFleetError(w, status, err)
		return
	}
	rs, err := h.CreateSession(spec)
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrFleetExhausted),
			errors.Is(err, service.ErrAtCapacity),
			errors.Is(err, service.ErrBusy):
			status = http.StatusTooManyRequests
			w.Header().Set("Retry-After", "0.5")
		case errors.Is(err, service.ErrClosed):
			status = http.StatusServiceUnavailable
		}
		writeFleetError(w, status, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(rs) //nolint:errcheck
}

func (h *Host) handleStatus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h.Status()) //nolint:errcheck
}

func writeFleetError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}) //nolint:errcheck
}
