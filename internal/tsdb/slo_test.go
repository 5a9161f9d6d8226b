package tsdb

import (
	"math"
	"strings"
	"testing"
	"time"

	"dcsprint/internal/telemetry"
)

func TestParseRules(t *testing.T) {
	rules, err := ParseRules(`hot = max(fleet.worst_breaker_stress, 30s) > 0.9 for 2; cold = min(fleet.worst_thermal_margin_c, 1m) < 2`)
	if err != nil {
		t.Fatalf("ParseRules: %v", err)
	}
	if len(rules) != 2 {
		t.Fatalf("parsed %d rules", len(rules))
	}
	want := Rule{Name: "hot", Agg: "max", Series: "fleet.worst_breaker_stress",
		Window: 30 * time.Second, Op: ">", Threshold: 0.9, For: 2}
	if rules[0] != want {
		t.Fatalf("rule[0] = %+v, want %+v", rules[0], want)
	}
	if rules[1].For != 1 {
		t.Fatalf("omitted 'for' should default to 1, got %d", rules[1].For)
	}
	// Round trip: String() re-parses to the same rule.
	back, err := ParseRules(rules[0].String())
	if err != nil || back[0] != rules[0] {
		t.Fatalf("round trip: %+v, %v", back, err)
	}
}

func TestParseRulesDefaultToken(t *testing.T) {
	rules, err := ParseRules("default")
	if err != nil {
		t.Fatalf("ParseRules(default): %v", err)
	}
	if len(rules) != len(DefaultRules()) {
		t.Fatalf("default expanded to %d rules", len(rules))
	}
	if r, err := ParseRules(""); err != nil || len(r) != 0 {
		t.Fatalf("empty input: %v, %v", r, err)
	}
	mixed, err := ParseRules("default; extra = avg(x, 10s) > 1 for 2")
	if err != nil || len(mixed) != len(DefaultRules())+1 {
		t.Fatalf("default+extra: %d rules, %v", len(mixed), err)
	}
	for _, r := range DefaultRules() {
		if err := r.validate(); err != nil {
			t.Fatalf("stock rule invalid: %v", err)
		}
	}
}

func TestParseRulesErrors(t *testing.T) {
	for _, bad := range []string{
		"noequals",
		"r = med(x, 10s) > 1",      // unknown aggregate
		"r = max(x) > 1",           // missing window
		"r = max(x, nope) > 1",     // bad duration
		"r = max(x, 10s) >= 1",     // unsupported operator
		"r = max(x, 10s) > banana", // bad threshold
		"r = max(x, 10s) > 1 in 3", // bad keyword
		"r = max(x, 10s) > 1 for x",
		"r = max(x, 10s) > 1 for 0",
		"r = max(x, -1s) > 1",
		"r = max(x, 10s) > NaN",  // never fires, and /debug/slo cannot encode it
		"r = max(x, 10s) > +Inf", // never fires
		"r = min(x, 10s) < -Inf", // never fires
	} {
		if _, err := ParseRules(bad); err == nil {
			t.Errorf("ParseRules(%q) accepted", bad)
		}
	}
}

// counterValue reads a labelled slo counter back out of the registry.
func counterValue(reg *telemetry.Registry, name, rule string) float64 {
	return reg.CounterWith(name, "", telemetry.Labels{"rule": rule}).Value()
}

func TestWatchdogFireClear(t *testing.T) {
	st := New(Options{})
	reg := telemetry.NewRegistry()
	flight := telemetry.NewFlightRecorder(1, 16)
	rule := Rule{Name: "stress", Agg: "max", Series: "x",
		Window: 10 * time.Second, Op: ">", Threshold: 0.9, For: 2}
	w, err := NewWatchdog(st, []Rule{rule}, reg, flight)
	if err != nil {
		t.Fatalf("NewWatchdog: %v", err)
	}
	s := st.Series("x")
	now := int64(0)
	step := func(v float64) {
		now += 1000
		s.Append(now, v)
		w.Evaluate(now)
	}

	step(0.5) // healthy
	step(0.95)
	if len(w.Active()) != 0 {
		t.Fatal("fired after one breach despite for=2")
	}
	step(0.95) // second consecutive breach arms it
	active := w.Active()
	if len(active) != 1 || active[0].Rule != "stress" || active[0].Value != 0.95 {
		t.Fatalf("Active = %+v", active)
	}
	if active[0].SinceMs != now {
		t.Fatalf("since = %d, want %d", active[0].SinceMs, now)
	}
	if got := counterValue(reg, "dcsprint_slo_breaches_total", "stress"); got != 1 {
		t.Fatalf("breaches = %v", got)
	}
	step(0.95) // still firing: no double-count
	if got := counterValue(reg, "dcsprint_slo_breaches_total", "stress"); got != 1 {
		t.Fatalf("breaches double-counted: %v", got)
	}

	// Recovery: the max over the trailing window must fall below the
	// threshold, so walk past the breach samples first.
	for i := 0; i < 12; i++ {
		step(0.1)
	}
	if len(w.Active()) != 0 {
		t.Fatalf("still active after recovery: %+v", w.Active())
	}
	if got := counterValue(reg, "dcsprint_slo_clears_total", "stress"); got != 1 {
		t.Fatalf("clears = %v", got)
	}

	var sawBreach, sawClear bool
	for _, ev := range flight.Events() {
		switch ev.Kind {
		case telemetry.EventSLOBreach:
			sawBreach = true
			if !strings.Contains(ev.Detail, "stress") {
				t.Fatalf("breach detail %q", ev.Detail)
			}
		case telemetry.EventSLOClear:
			sawClear = true
		}
	}
	if !sawBreach || !sawClear {
		t.Fatalf("flight events breach=%v clear=%v", sawBreach, sawClear)
	}
}

func TestWatchdogHysteresisAndNoData(t *testing.T) {
	st := New(Options{})
	reg := telemetry.NewRegistry()
	rule := Rule{Name: "floor", Agg: "min", Series: "m",
		Window: 5 * time.Second, Op: "<", Threshold: 2, For: 3}
	w, err := NewWatchdog(st, []Rule{rule}, reg, nil)
	if err != nil {
		t.Fatalf("NewWatchdog: %v", err)
	}
	s := st.Series("m")
	// Two breaches, one recovery, two breaches: never 3 consecutive.
	ts := int64(0)
	for _, v := range []float64{1, 1, 5, 1, 1} {
		ts += 6000 // each sample is the whole window
		s.Append(ts, v)
		w.Evaluate(ts)
	}
	if len(w.Active()) != 0 {
		t.Fatal("fired without For consecutive breaches")
	}
	// Three consecutive breaches fire it.
	for i := 0; i < 3; i++ {
		ts += 6000
		s.Append(ts, 1)
		w.Evaluate(ts)
	}
	if len(w.Active()) != 1 {
		t.Fatal("did not fire after For breaches")
	}
	// The series goes silent: the next evaluation sees no data in the
	// window and the alert clears rather than firing forever.
	ts += 60000
	w.Evaluate(ts)
	if len(w.Active()) != 0 {
		t.Fatal("alert outlived its data")
	}
	if got := counterValue(reg, "dcsprint_slo_clears_total", "floor"); got != 1 {
		t.Fatalf("clears = %v", got)
	}
}

func TestWatchdogRejectsBadRule(t *testing.T) {
	if _, err := NewWatchdog(New(Options{}), []Rule{{Name: "bad"}}, telemetry.NewRegistry(), nil); err == nil {
		t.Fatal("invalid rule accepted")
	}
	for _, thr := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := Rule{Name: "nonfinite", Agg: "max", Series: "x", Window: 10 * time.Second, Op: ">", Threshold: thr, For: 1}
		if _, err := NewWatchdog(New(Options{}), []Rule{r}, telemetry.NewRegistry(), nil); err == nil {
			t.Errorf("rule with threshold %v accepted", thr)
		}
	}
}

// FuzzParseRules checks that arbitrary -slo-rules input never panics the
// parser, and that every accepted rule renders through Rule.String to text
// that parses back to the same rule.
func FuzzParseRules(f *testing.F) {
	f.Add("default")
	f.Add("hot = max(fleet.worst_breaker_stress, 30s) > 0.9 for 2; cold = min(fleet.worst_thermal_margin_c, 1m) < 2")
	f.Add("x = avg(fleet.sessions, 1h30m) > 1e-7 for 3\nsecond = min(a(b, 1ms) < -0")
	f.Add("x = max(fleet.sessions, 10s) > NaN")
	f.Add("x = max(fleet.sessions, 10s) > 0x1p-2 for +4")
	f.Add("noequals")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		rules, err := ParseRules(input)
		if err != nil {
			return
		}
		for _, r := range rules {
			if err := r.validate(); err != nil {
				t.Fatalf("accepted invalid rule %+v: %v", r, err)
			}
			back, err := ParseRules(r.String())
			if err != nil {
				t.Fatalf("canonical form %q did not parse: %v", r.String(), err)
			}
			if len(back) != 1 || back[0] != r {
				t.Fatalf("round trip of %q gave %+v, want %+v", r.String(), back, r)
			}
		}
	})
}
