package tsdb

import (
	"math"
	"sync"
	"time"

	"dcsprint/internal/sim"
)

// Fleet-level series the sink maintains. Per-session series use the
// plant.* base names below with a {session="<id>"} label suffix.
const (
	// SeriesFleetSessions counts sessions contributing a plant sample.
	SeriesFleetSessions = "fleet.sessions"
	// SeriesFleetSprinting counts sessions whose last sample had degree > 1.
	SeriesFleetSprinting = "fleet.sessions_sprinting"
	// SeriesFleetTotalDraw sums DC breaker load across the fleet, watts.
	SeriesFleetTotalDraw = "fleet.total_draw_watts"
	// SeriesFleetTotalGen sums on-site generator output, watts.
	SeriesFleetTotalGen = "fleet.total_gen_watts"
	// SeriesFleetTotalGrid sums grid draw net of generation, watts.
	SeriesFleetTotalGrid = "fleet.total_grid_watts"
	// SeriesFleetWorstThermal is the smallest thermal margin (°C) across
	// the fleet — the session closest to overheating.
	SeriesFleetWorstThermal = "fleet.worst_thermal_margin_c"
	// SeriesFleetWorstStress is the largest breaker thermal-accumulator
	// value across the fleet (1.0 trips).
	SeriesFleetWorstStress = "fleet.worst_breaker_stress"
	// SeriesFleetMinUPSSoC is the lowest UPS state of charge in [0, 1].
	SeriesFleetMinUPSSoC = "fleet.min_ups_soc"
	// SeriesFleetMinTESSoC is the lowest TES state of charge among
	// sessions that have a tank; absent while none do.
	SeriesFleetMinTESSoC = "fleet.min_tes_soc"
	// SeriesFleetStepsPerSec and SeriesFleetSlowStepRatio are control-
	// plane extras the service manager folds in: served step throughput
	// and the fraction of steps over the slow-step threshold (the
	// latency-SLO burn signal).
	SeriesFleetStepsPerSec   = "fleet.steps_per_sec"
	SeriesFleetSlowStepRatio = "fleet.slow_step_ratio"
)

// sessionFields maps PlantSample fields to per-session series names.
// optional fields use -1 as a "model absent" sentinel and are skipped.
var sessionFields = []struct {
	name     string
	optional bool
	get      func(sim.PlantSample) float64
}{
	{"plant.dc_load_watts", false, func(s sim.PlantSample) float64 { return s.DCLoadW }},
	{"plant.grid_draw_watts", false, func(s sim.PlantSample) float64 { return s.GridDrawW }},
	{"plant.gen_watts", false, func(s sim.PlantSample) float64 { return s.GenPowerW }},
	{"plant.degree", false, func(s sim.PlantSample) float64 { return s.Degree }},
	{"plant.room_temp_c", false, func(s sim.PlantSample) float64 { return s.RoomTempC }},
	{"plant.thermal_margin_c", false, func(s sim.PlantSample) float64 { return s.ThermalMarginC }},
	{"plant.breaker_stress", false, func(s sim.PlantSample) float64 { return s.BreakerStress }},
	{"plant.ups_soc", false, func(s sim.PlantSample) float64 { return s.UPSSoC }},
	{"plant.tes_soc", true, func(s sim.PlantSample) float64 { return s.TESSoC }},
	{"plant.chip_headroom_j", true, func(s sim.PlantSample) float64 { return s.ChipHeadroomJ }},
}

func sessionSeriesName(base, id string) string {
	return base + `{session="` + id + `"}`
}

// DCSeriesName labels a fleet series with a data-centre id — the per-DC
// fold family of the fleet control plane, e.g.
// fleet.worst_breaker_stress{dc="dc-07"}.
func DCSeriesName(base, dc string) string {
	return base + `{dc="` + dc + `"}`
}

// SinkOptions tunes a PlantSink. The zero value is a live sink with
// wall-clock timestamps.
type SinkOptions struct {
	// Clock returns the current timestamp in milliseconds. Nil means
	// wall clock; tests inject a fake.
	Clock func() int64
}

// PlantSink adapts a Store to the service manager: each session gets a
// SessionRecorder feeding labelled per-session series, and SampleFleet
// folds the latest sample of every live session into fleet-level series.
// All methods are safe for concurrent use.
type PlantSink struct {
	store *Store
	clock func() int64

	mu       sync.Mutex
	sessions map[string]*SessionRecorder
}

// NewPlantSink returns a sink writing into store.
func NewPlantSink(store *Store, opts SinkOptions) *PlantSink {
	clock := opts.Clock
	if clock == nil {
		clock = func() int64 { return time.Now().UnixMilli() }
	}
	return &PlantSink{
		store:    store,
		clock:    clock,
		sessions: make(map[string]*SessionRecorder),
	}
}

// Store returns the underlying series store.
func (k *PlantSink) Store() *Store { return k.store }

// Sessions returns how many session recorders are live.
func (k *PlantSink) Sessions() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.sessions)
}

// Session returns the recorder for a session id, creating it on first
// use. The recorder implements sim.PlantRecorder; attach it to the
// session's engine.
func (k *PlantSink) Session(id string) *SessionRecorder {
	k.mu.Lock()
	defer k.mu.Unlock()
	if r := k.sessions[id]; r != nil {
		return r
	}
	r := &SessionRecorder{sink: k, id: id, series: make([]*Series, len(sessionFields))}
	for i, f := range sessionFields {
		// A store at its MaxSeries cap returns nil, which Append
		// discards — the session still contributes to fleet folds.
		r.series[i] = k.store.Series(sessionSeriesName(f.name, id))
	}
	k.sessions[id] = r
	return r
}

// Drop forgets a session: its recorder leaves the fleet fold and its
// per-session series leave the store, freeing slots under MaxSeries.
func (k *PlantSink) Drop(id string) {
	k.mu.Lock()
	r := k.sessions[id]
	delete(k.sessions, id)
	k.mu.Unlock()
	if r == nil {
		return
	}
	for _, f := range sessionFields {
		k.store.Remove(sessionSeriesName(f.name, id))
	}
}

// SampleFleet folds the most recent sample of every live session into
// the fleet series and appends any extras (keyed by full series name).
// Min/max series are only appended while at least one session has
// reported, so an idle fleet reads as absent rather than zero margin.
// Returns the timestamp used, so a watchdog can evaluate at it.
func (k *PlantSink) SampleFleet(extra map[string]float64) int64 {
	ts := k.clock()
	k.mu.Lock()
	recs := make([]*SessionRecorder, 0, len(k.sessions))
	for _, r := range k.sessions {
		recs = append(recs, r)
	}
	k.mu.Unlock()

	var (
		n, sprinting    int
		draw, gen, grid float64
		worstThermal    = math.Inf(1)
		minUPS          = math.Inf(1)
		minTES          = math.Inf(1)
		worstStress     float64
	)
	for _, r := range recs {
		s, ok := r.Last()
		if !ok {
			continue
		}
		n++
		if s.Degree > 1 {
			sprinting++
		}
		draw += s.DCLoadW
		gen += s.GenPowerW
		grid += s.GridDrawW
		if s.ThermalMarginC < worstThermal {
			worstThermal = s.ThermalMarginC
		}
		if s.BreakerStress > worstStress {
			worstStress = s.BreakerStress
		}
		if s.UPSSoC < minUPS {
			minUPS = s.UPSSoC
		}
		if s.TESSoC >= 0 && s.TESSoC < minTES {
			minTES = s.TESSoC
		}
	}
	app := func(name string, v float64) { k.store.Series(name).Append(ts, v) }
	app(SeriesFleetSprinting, float64(sprinting))
	app(SeriesFleetTotalDraw, draw)
	app(SeriesFleetTotalGen, gen)
	app(SeriesFleetTotalGrid, grid)
	if n > 0 {
		app(SeriesFleetWorstThermal, worstThermal)
		app(SeriesFleetWorstStress, worstStress)
		app(SeriesFleetMinUPSSoC, minUPS)
		if !math.IsInf(minTES, 1) {
			app(SeriesFleetMinTESSoC, minTES)
		}
	}
	// The session count goes last, so a reader that sees a fold's count
	// also sees the rest of that fold.
	app(SeriesFleetSessions, float64(n))
	for name, v := range extra {
		app(name, v)
	}
	return ts
}

// SessionRecorder is one session's sim.PlantRecorder: it retains the
// latest sample for fleet folds and streams the probe fields into the
// session's labelled series. RecordPlant runs on the session goroutine
// every tick, so it takes two short mutexes and never allocates.
type SessionRecorder struct {
	sink   *PlantSink
	id     string
	series []*Series // indexed like sessionFields

	mu   sync.Mutex
	last sim.PlantSample
	have bool
}

// ID returns the session id the recorder feeds.
func (r *SessionRecorder) ID() string { return r.id }

// Last returns the latest recorded sample; ok is false until the session's
// first step.
func (r *SessionRecorder) Last() (s sim.PlantSample, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last, r.have
}

// RecordPlant implements sim.PlantRecorder.
func (r *SessionRecorder) RecordPlant(s sim.PlantSample) {
	ts := r.sink.clock()
	r.mu.Lock()
	r.last, r.have = s, true
	r.mu.Unlock()
	for i := range r.series {
		f := &sessionFields[i]
		v := f.get(s)
		if f.optional && v < 0 {
			continue
		}
		r.series[i].Append(ts, v)
	}
}

// OfflineRecorder is the sim.PlantRecorder for single-run offline use
// (cmd/dcsprint -series-out): every probe field lands in an unlabelled
// plant.* series timestamped by the sample's own simulation clock, so a
// dump replays in simulated time rather than wall time.
type OfflineRecorder struct {
	series []*Series
}

// NewOfflineRecorder returns a recorder writing into store.
func NewOfflineRecorder(store *Store) *OfflineRecorder {
	r := &OfflineRecorder{series: make([]*Series, len(sessionFields))}
	for i, f := range sessionFields {
		r.series[i] = store.Series(f.name)
	}
	return r
}

// RecordPlant implements sim.PlantRecorder.
func (r *OfflineRecorder) RecordPlant(s sim.PlantSample) {
	ts := s.Now.Milliseconds()
	for i := range r.series {
		f := &sessionFields[i]
		v := f.get(s)
		if f.optional && v < 0 {
			continue
		}
		r.series[i].Append(ts, v)
	}
}
