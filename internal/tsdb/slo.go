package tsdb

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"dcsprint/internal/telemetry"
)

// Rule is one SLO burn-rate rule: an aggregate of a series over a
// trailing window compared against a threshold, with a consecutive-
// evaluation hysteresis before it fires.
type Rule struct {
	// Name labels the rule in metrics, flight events and the dashboard.
	Name string `json:"name"`
	// Agg is "min", "max" or "avg" over the window.
	Agg string `json:"agg"`
	// Series is the store series the rule watches.
	Series string `json:"series"`
	// Window is the trailing evaluation window.
	Window time.Duration `json:"window_ns"`
	// Op is "<" or ">" — which side of Threshold breaches.
	Op string `json:"op"`
	// Threshold is the breach boundary.
	Threshold float64 `json:"threshold"`
	// For is how many consecutive breached evaluations arm the rule
	// before it fires; at least 1.
	For int `json:"for"`
}

// String renders the rule in the -slo-rules grammar.
func (r Rule) String() string {
	return fmt.Sprintf("%s = %s(%s, %s) %s %g for %d",
		r.Name, r.Agg, r.Series, r.Window, r.Op, r.Threshold, r.For)
}

func (r Rule) validate() error {
	switch {
	case r.Name == "":
		return fmt.Errorf("tsdb: rule missing a name")
	case r.Agg != "min" && r.Agg != "max" && r.Agg != "avg":
		return fmt.Errorf("tsdb: rule %s: aggregate %q (want min, max or avg)", r.Name, r.Agg)
	case r.Series == "":
		return fmt.Errorf("tsdb: rule %s: missing series", r.Name)
	case r.Window <= 0:
		return fmt.Errorf("tsdb: rule %s: window %v must be positive", r.Name, r.Window)
	case r.Op != "<" && r.Op != ">":
		return fmt.Errorf("tsdb: rule %s: operator %q (want < or >)", r.Name, r.Op)
	case math.IsNaN(r.Threshold) || math.IsInf(r.Threshold, 0):
		return fmt.Errorf("tsdb: rule %s: threshold %v must be finite", r.Name, r.Threshold)
	case r.For < 1:
		return fmt.Errorf("tsdb: rule %s: for %d must be at least 1", r.Name, r.For)
	}
	return nil
}

// DefaultRules returns the stock watchdog rules: the thermal-margin
// floor, breaker-trip proximity, and the latency-SLO burn rate — the
// three headroom signals the paper's sprint governor watches. The
// thresholds are calibrated to the controller's *designed* extremes, which
// are aggressive: a healthy sprint rides the room to ≈0.07°C of margin and
// the worst breaker accumulator to 1−1e-5 (the reserved trip time), so the
// rules stay silent across healthy bursts and fire only when the safety
// contract is actually violated — margin collapsing toward overheat, or an
// accumulator reaching the trip clamp at exactly 1.
func DefaultRules() []Rule {
	return []Rule{
		{Name: "thermal-floor", Agg: "min", Series: SeriesFleetWorstThermal,
			Window: 30 * time.Second, Op: "<", Threshold: 0.01, For: 2},
		{Name: "breaker-trip-proximity", Agg: "max", Series: SeriesFleetWorstStress,
			Window: 30 * time.Second, Op: ">", Threshold: 0.999999, For: 1},
		{Name: "latency-burn", Agg: "avg", Series: SeriesFleetSlowStepRatio,
			Window: time.Minute, Op: ">", Threshold: 0.05, For: 3},
	}
}

// ParseRules parses a -slo-rules flag: rules separated by ";" or
// newlines, each in the grammar
//
//	name = agg(series, window) op threshold [for N]
//
// e.g. "thermal-floor = min(fleet.worst_thermal_margin_c, 30s) < 2 for 3".
// The bare token "default" expands to DefaultRules. Empty input means no
// rules.
func ParseRules(s string) ([]Rule, error) {
	var out []Rule
	for _, part := range strings.FieldsFunc(s, func(r rune) bool { return r == ';' || r == '\n' }) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if part == "default" {
			out = append(out, DefaultRules()...)
			continue
		}
		r, err := parseRule(part)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func parseRule(s string) (Rule, error) {
	var r Rule
	name, rest, ok := strings.Cut(s, "=")
	if !ok {
		return r, fmt.Errorf("tsdb: rule %q: missing '='", s)
	}
	r.Name = strings.TrimSpace(name)
	rest = strings.TrimSpace(rest)
	open := strings.IndexByte(rest, '(')
	closing := strings.IndexByte(rest, ')')
	if open < 0 || closing < open {
		return r, fmt.Errorf("tsdb: rule %s: want agg(series, window)", r.Name)
	}
	r.Agg = strings.TrimSpace(rest[:open])
	series, window, ok := strings.Cut(rest[open+1:closing], ",")
	if !ok {
		return r, fmt.Errorf("tsdb: rule %s: want agg(series, window)", r.Name)
	}
	r.Series = strings.TrimSpace(series)
	var err error
	if r.Window, err = time.ParseDuration(strings.TrimSpace(window)); err != nil {
		return r, fmt.Errorf("tsdb: rule %s: window: %w", r.Name, err)
	}
	fields := strings.Fields(rest[closing+1:])
	if len(fields) != 2 && len(fields) != 4 {
		return r, fmt.Errorf("tsdb: rule %s: want 'op threshold [for N]' after ')'", r.Name)
	}
	r.Op = fields[0]
	if r.Threshold, err = strconv.ParseFloat(fields[1], 64); err != nil {
		return r, fmt.Errorf("tsdb: rule %s: threshold: %w", r.Name, err)
	}
	r.For = 1
	if len(fields) == 4 {
		if fields[2] != "for" {
			return r, fmt.Errorf("tsdb: rule %s: want 'for N', got %q", r.Name, fields[2])
		}
		if r.For, err = strconv.Atoi(fields[3]); err != nil {
			return r, fmt.Errorf("tsdb: rule %s: for: %w", r.Name, err)
		}
	}
	return r, r.validate()
}

// Alert is one currently-firing rule, the /debug/slo wire shape.
type Alert struct {
	Rule      string  `json:"rule"`
	Expr      string  `json:"expr"`
	Series    string  `json:"series"`
	SinceMs   int64   `json:"since_ms"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
}

type ruleState struct {
	streak int
	firing bool
	since  int64
	value  float64
	seen   bool // the rule has ever evaluated over data
}

// Watchdog evaluates a rule set over a store on each tick of the fleet
// sampler, driving dcsprint_slo_* metrics and flight-recorder events
// through the fire/clear lifecycle. Evaluate and Active are safe for
// concurrent use.
type Watchdog struct {
	store    *Store
	rules    []Rule
	flight   *telemetry.FlightRecorder
	breaches []*telemetry.Counter
	clears   []*telemetry.Counter
	firing   []*telemetry.Gauge
	active   *telemetry.Gauge

	mu sync.Mutex
	st []ruleState
}

// NewWatchdog returns a watchdog over store. Rules failing validation
// are rejected. reg is required (the dcsprint_slo_* metrics live there);
// flight may be nil to skip event recording.
func NewWatchdog(store *Store, rules []Rule, reg *telemetry.Registry, flight *telemetry.FlightRecorder) (*Watchdog, error) {
	w := &Watchdog{
		store:  store,
		rules:  rules,
		flight: flight,
		st:     make([]ruleState, len(rules)),
		active: reg.Gauge("dcsprint_slo_active_alerts", "SLO rules currently firing"),
	}
	for _, r := range rules {
		if err := r.validate(); err != nil {
			return nil, err
		}
		l := telemetry.Labels{"rule": r.Name}
		w.breaches = append(w.breaches, reg.CounterWith("dcsprint_slo_breaches_total",
			"SLO rule fire transitions", l))
		w.clears = append(w.clears, reg.CounterWith("dcsprint_slo_clears_total",
			"SLO rule clear transitions", l))
		w.firing = append(w.firing, reg.GaugeWith("dcsprint_slo_firing",
			"Whether the SLO rule is currently firing", l))
	}
	return w, nil
}

// Rules returns the watchdog's rule set.
func (w *Watchdog) Rules() []Rule { return w.rules }

// Evaluate runs every rule against the window ending at now (store
// timestamp, milliseconds). A rule with no data in its window is not a
// breach: an armed streak resets and a firing rule clears, so alerts do
// not outlive the series that raised them.
func (w *Watchdog) Evaluate(now int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	nActive := 0
	for i := range w.rules {
		r := &w.rules[i]
		st := &w.st[i]
		var agg Bucket
		if s := w.store.Lookup(r.Series); s != nil {
			win := r.Window.Milliseconds()
			// One output bucket spanning the whole window, closed at now.
			for _, b := range s.Query(now-win, now+1, win+1) {
				agg.merge(b)
			}
		}
		breach := false
		if agg.Count > 0 {
			switch r.Agg {
			case "min":
				st.value = agg.Min
			case "max":
				st.value = agg.Max
			default:
				st.value = agg.Avg()
			}
			st.seen = true
			if r.Op == "<" {
				breach = st.value < r.Threshold
			} else {
				breach = st.value > r.Threshold
			}
		}
		if breach {
			st.streak++
		} else {
			st.streak = 0
		}
		switch {
		case !st.firing && st.streak >= r.For:
			st.firing = true
			st.since = now
			w.breaches[i].Inc()
			w.firing[i].Set(1)
			w.event(telemetry.EventSLOBreach, r, st)
		case st.firing && !breach:
			st.firing = false
			w.clears[i].Inc()
			w.firing[i].Set(0)
			w.event(telemetry.EventSLOClear, r, st)
		}
		if st.firing {
			nActive++
		}
	}
	w.active.Set(float64(nActive))
}

func (w *Watchdog) event(kind string, r *Rule, st *ruleState) {
	if w.flight == nil {
		return
	}
	w.flight.Record(-1, telemetry.FlightEvent{
		Kind: kind,
		Detail: fmt.Sprintf("%s: %s(%s, %s) = %.4g (threshold %s %g)",
			r.Name, r.Agg, r.Series, r.Window, st.value, r.Op, r.Threshold),
	})
}

// Active returns the currently-firing rules as alerts, in rule order.
func (w *Watchdog) Active() []Alert {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := []Alert{}
	for i := range w.rules {
		if !w.st[i].firing {
			continue
		}
		r := w.rules[i]
		out = append(out, Alert{
			Rule:      r.Name,
			Expr:      r.String(),
			Series:    r.Series,
			SinceMs:   w.st[i].since,
			Value:     w.st[i].value,
			Threshold: r.Threshold,
		})
	}
	return out
}
