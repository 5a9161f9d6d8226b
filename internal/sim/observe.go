package sim

import (
	"dcsprint/internal/core"
	"dcsprint/internal/telemetry"
)

// Instrument observes finished runs: it feeds a telemetry registry (gauges
// for the final plant state, counters and histograms for run statistics).
// It reads only the Result, so observing a run can never change it. The
// sprint-lifecycle trace is an export of the Result too; see
// (*Result).WriteTraceJSONL.
type Instrument struct {
	reg *telemetry.Registry

	// Handles resolved once at construction.
	ticks      *telemetry.Counter
	events     *telemetry.Counter
	demand     *telemetry.Gauge
	delivered  *telemetry.Gauge
	degree     *telemetry.Gauge
	phase      *telemetry.Gauge
	dcLoad     *telemetry.Gauge
	pduLoad    *telemetry.Gauge
	upsPower   *telemetry.Gauge
	genPower   *telemetry.Gauge
	coolPower  *telemetry.Gauge
	tesRate    *telemetry.Gauge
	roomTemp   *telemetry.Gauge
	degreeHist *telemetry.Histogram
	tempHist   *telemetry.Histogram
}

// NewInstrument returns an Instrument observing into reg, which may be
// shared across runs (the registry is concurrency-safe).
func NewInstrument(reg *telemetry.Registry) *Instrument {
	in := &Instrument{reg: reg}
	in.ticks = reg.Counter("dcsprint_sim_ticks_total", "Simulated ticks observed.")
	in.events = reg.Counter("dcsprint_controller_events_total", "Controller events emitted.")
	in.demand = reg.Gauge("dcsprint_sim_demand_ratio", "Normalized demand this tick.")
	in.delivered = reg.Gauge("dcsprint_sim_delivered_ratio", "Normalized delivered throughput this tick.")
	in.degree = reg.Gauge("dcsprint_controller_degree_ratio", "Realized sprinting degree this tick.")
	in.phase = reg.Gauge("dcsprint_controller_phase_index", "Controller phase (0 normal, 1 CB, 2 UPS, 3 TES).")
	in.dcLoad = reg.Gauge("dcsprint_power_dc_load_watts", "DC breaker load.")
	in.pduLoad = reg.Gauge("dcsprint_power_pdu_load_watts", "Hottest PDU breaker load.")
	in.upsPower = reg.Gauge("dcsprint_power_ups_watts", "Fleet battery discharge.")
	in.genPower = reg.Gauge("dcsprint_power_gen_watts", "On-site generator output.")
	in.coolPower = reg.Gauge("dcsprint_cooling_plant_watts", "Cooling plant electrical power.")
	in.tesRate = reg.Gauge("dcsprint_cooling_tes_watts", "TES heat-absorption rate.")
	in.roomTemp = reg.Gauge("dcsprint_cooling_room_celsius", "Room temperature.")
	in.degreeHist = reg.Histogram("dcsprint_controller_degree_hist_ratio",
		"Distribution of realized sprinting degree.", telemetry.LinearBuckets(1, 0.1, 8))
	in.tempHist = reg.Histogram("dcsprint_cooling_room_hist_celsius",
		"Distribution of room temperature.", telemetry.LinearBuckets(20, 2.5, 10))
	return in
}

// Registry returns the registry the instrument observes into.
func (in *Instrument) Registry() *telemetry.Registry { return in.reg }

// Observe feeds one finished run into the registry. The gauges hold the
// run's last tick, the histograms and the tick counter cover every tick,
// and the events come from Result.Events, so they stop at the controller's
// event-log cap.
func (in *Instrument) Observe(res *Result) {
	tele := &res.Telemetry
	n := tele.Required.Len()
	in.ticks.Add(float64(n))
	if n > 0 {
		i := n - 1
		// Required echoes the raw input; the gauge reports the demand
		// the tick served.
		in.demand.Set(core.SanitizeDemand(tele.Required.Samples[i]))
		in.delivered.Set(tele.Achieved.Samples[i])
		in.degree.Set(tele.Degree.Samples[i])
		in.phase.Set(float64(tele.Phase[i]))
		in.dcLoad.Set(tele.DCLoad.Samples[i])
		in.pduLoad.Set(tele.PDULoad.Samples[i])
		in.upsPower.Set(tele.UPSPower.Samples[i])
		in.genPower.Set(tele.GenPower.Samples[i])
		in.coolPower.Set(tele.CoolingPower.Samples[i])
		in.tesRate.Set(tele.TESRate.Samples[i])
		in.roomTemp.Set(tele.RoomTemp.Samples[i])
	}
	for i := 0; i < n; i++ {
		in.degreeHist.Observe(tele.Degree.Samples[i])
		in.tempHist.Observe(tele.RoomTemp.Samples[i])
	}
	for _, e := range res.Events {
		in.events.Inc()
		in.reg.CounterWith("dcsprint_controller_events_by_kind_total",
			"Controller events by kind.", telemetry.Labels{"kind": e.Kind.String()}).Inc()
	}
	in.reg.Gauge("dcsprint_sim_improvement_ratio",
		"Average burst performance relative to no sprinting.").Set(res.Improvement())
	in.reg.Gauge("dcsprint_sim_sprint_sustained_seconds",
		"Total time delivered performance exceeded 1.").Set(res.SprintSustained.Seconds())
	in.reg.Gauge("dcsprint_sim_max_breaker_stress_ratio",
		"Largest breaker thermal-accumulator value reached.").Set(res.MaxBreakerStress)
	if res.Dead {
		in.reg.Counter("dcsprint_sim_deaths_total", "Runs ending with the facility down.").Inc()
	}
	if res.TrippedAt >= 0 {
		in.reg.Counter("dcsprint_sim_trips_total", "Runs with a breaker trip.").Inc()
	}
	if res.FaultsApplied > 0 {
		in.reg.Counter("dcsprint_faults_applied_total", "Fault events fired.").Add(float64(res.FaultsApplied))
	}
}

// defaultRunCounters are the always-on probes every Run feeds into the
// process-wide registry, so any CLI can expose campaign totals without
// plumbing a registry through.
func defaultRunCounters(res *Result) {
	reg := telemetry.Default()
	reg.Counter("dcsprint_sim_runs_total", "Completed simulation runs.").Inc()
	reg.Counter("dcsprint_sim_run_ticks_total", "Ticks simulated across all runs.").
		Add(float64(res.Telemetry.Required.Len()))
	if res.Dead {
		reg.Counter("dcsprint_sim_run_deaths_total", "Runs ending with the facility down.").Inc()
	}
	if res.TrippedAt >= 0 {
		reg.Counter("dcsprint_sim_run_trips_total", "Runs with a breaker trip.").Inc()
	}
}
