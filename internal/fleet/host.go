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

// foldEvery is the host's fold cadence: how often it reads the manager's
// plant probes into the placed sessions and appends the per-DC folds.
const foldEvery = time.Second

// placement is one session the host routed: its serving DC and the last
// plant probe the fold read for it — the daemon-side ledger feed. The fold
// pulls Manager.Probes, each session's Engine.Plant read under its session
// lock, so neither the step hot path nor a create pays for the fleet
// control plane. Every field is guarded by Host.mu.
type placement struct {
	dc   int // serving DC index
	last sim.PlantSample
	have bool // last holds a probe: the session has stepped
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
}

// Host is the daemon face of the fleet control plane, a client of one
// service.Manager: it routes session creation across DC profiles through
// the Router, keeps per-DC ledgers fed from the live engines of the
// sessions it placed, and folds the ledgers into per-DC time series.
type Host struct {
	cfg      HostConfig
	mgr      *service.Manager
	profiles []Profile

	mu     sync.Mutex // guards router, placed and their fields, dcs bookkeeping, rr
	router *Router
	placed map[string]*placement
	dcs    []*hostDC
	rr     int

	stop chan struct{}
	wg   sync.WaitGroup

	mDCs      *telemetry.Gauge
	mRouted   *telemetry.Counter
	mSpills   *telemetry.Counter
	mRejected *telemetry.Counter
}

// NewHost builds a host fleet from cfg that routes into mgr and starts its
// fold loop. The manager is closed by its own owner.
func NewHost(cfg HostConfig, mgr *service.Manager) (*Host, error) {
	profiles, err := cfg.Spec.Profiles()
	if err != nil {
		return nil, err
	}
	h := &Host{
		cfg:      cfg,
		mgr:      mgr,
		profiles: profiles,
		router: NewRouter(RouterConfig{
			Seed:     cfg.Spec.Seed,
			Replicas: cfg.Spec.Replicas,
			HopRTT:   cfg.Spec.HopRTT,
			HopCost:  cfg.Spec.HopCost,
		}),
		placed: make(map[string]*placement),
		dcs:    make([]*hostDC, len(profiles)),
		stop:   make(chan struct{}),
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

// Profiles returns the host fleet's DC profiles.
func (h *Host) Profiles() []Profile { return h.profiles }

// Close stops the fold loop. The manager is closed by its own owner.
func (h *Host) Close() {
	close(h.stop)
	h.wg.Wait()
}

// ledgersLocked derives the current per-DC ledgers. It first forgets every
// placed session the manager no longer hosts — finished, evicted or shut
// down — and frees its DC slot, so no decision reads a slot held by a
// session that is gone. Caller holds h.mu.
func (h *Host) ledgersLocked() []Ledger {
	for id, p := range h.placed {
		if _, err := h.mgr.Info(id); errors.Is(err, service.ErrNotFound) {
			delete(h.placed, id)
			h.dcs[p.dc].sessions--
		}
	}
	out := make([]Ledger, len(h.dcs))
	for i, d := range h.dcs {
		out[i] = FreshLedger(d.profile.ID, d.sessions, d.profile.AdmitCap)
	}
	for _, p := range h.placed {
		if !p.have {
			continue
		}
		m := LedgerOf(h.dcs[p.dc].profile.ID, p.last)
		// A member riding its breaker accumulator to the trip point has
		// taken the facility down: the DC admits nothing until it clears.
		m.Dead = p.dead || p.last.BreakerStress >= 1
		out[p.dc].Fold(m)
	}
	return out
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

	sess, err := h.mgr.Create(spec)
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
	h.placed[sess.ID] = &placement{dc: serving}
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

// foldLoop folds the ledgers every foldEvery until Close.
func (h *Host) foldLoop() {
	defer h.wg.Done()
	t := time.NewTicker(foldEvery)
	defer t.Stop()
	for {
		select {
		case <-h.stop:
			return
		case now := <-t.C:
			h.fold(now)
		}
	}
}

// fold reads the latest plant state of the placed sessions out of the
// manager's live engines — the ledger feed's only sample source — and
// appends the per-DC ledger folds at now.
func (h *Host) fold(now time.Time) {
	probes := h.mgr.Probes()
	h.mu.Lock()
	for _, pr := range probes {
		if p := h.placed[pr.ID]; p != nil {
			p.last, p.have, p.dead = pr.Sample, true, pr.Dead
		}
	}
	ledgers := h.ledgersLocked()
	h.mu.Unlock()
	ts := now.UnixMilli()
	for i, l := range ledgers {
		if reg := h.cfg.Registry; reg != nil {
			reg.GaugeWith("dcsprint_fleet_dc_sessions",
				"Live sessions served by the DC",
				telemetry.Labels{"dc": l.DC}).Set(float64(l.Sessions))
		}
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
