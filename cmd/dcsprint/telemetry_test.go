package main

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dcsprint"
	"dcsprint/internal/telemetry"
)

// captureStdout runs fn with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	fnErr := fn()
	w.Close()
	os.Stdout = old
	var b strings.Builder
	buf := make([]byte, 32*1024)
	for {
		n, err := r.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return b.String(), fnErr
}

// TestRunTelemetrySinks is the issue's acceptance scenario: one run feeding
// the live endpoint, the Prometheus snapshot and the JSONL trace at once.
func TestRunTelemetrySinks(t *testing.T) {
	dir := t.TempDir()
	prom := filepath.Join(dir, "out.prom")
	jsonl := filepath.Join(dir, "run.jsonl")
	out, err := captureStdout(t, func() error {
		return run([]string{"-trace", "yahoo", "-degree", "3.2", "-duration", "15m",
			"-listen", "127.0.0.1:0", "-metrics", prom, "-trace-out", jsonl})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "telemetry listening on http://") {
		t.Fatalf("no listen address printed:\n%s", out)
	}

	// (a) The Prometheus snapshot parses by round-trip.
	pf, err := os.Open(prom)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := telemetry.ParsePrometheus(pf)
	pf.Close()
	if err != nil {
		t.Fatalf("metrics snapshot does not parse: %v", err)
	}
	byKey := map[string]float64{}
	for _, s := range samples {
		byKey[s.Key()] = s.Value
	}
	if byKey["dcsprint_sim_ticks_total"] < 1800 {
		t.Fatalf("ticks counter = %v in snapshot", byKey["dcsprint_sim_ticks_total"])
	}
	if _, ok := byKey[`dcsprint_controller_events_by_kind_total{kind="burst-started",}`]; !ok {
		t.Fatalf("no burst-started event counter; keys: %v", byKey)
	}

	// (b) One JSONL span per controller phase, with plausible windows:
	// the yahoo burst starts at minute 5 and walks phases 1 -> 2 -> 3.
	tf, err := os.Open(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadJSONL(tf)
	tf.Close()
	if err != nil {
		t.Fatalf("trace JSONL does not parse: %v", err)
	}
	spans := map[string][]telemetry.TraceRecord{}
	for _, r := range recs {
		if r.Type == "span" {
			spans[r.Name] = append(spans[r.Name], r)
		}
	}
	for _, name := range []string{"burst", "phase-cb-overload", "phase-ups-discharge", "phase-tes-cooling"} {
		got := spans[name]
		if len(got) != 1 {
			t.Fatalf("span %q appears %d times, want 1 (records: %v)", name, len(got), recs)
		}
		if got[0].EndS <= got[0].StartS {
			t.Fatalf("span %q window %v..%v", name, got[0].StartS, got[0].EndS)
		}
	}
	// Phases are contiguous: each starts where the previous ended.
	cb, ups, tes := spans["phase-cb-overload"][0], spans["phase-ups-discharge"][0], spans["phase-tes-cooling"][0]
	if cb.EndS != ups.StartS || ups.EndS != tes.StartS {
		t.Fatalf("phase spans not contiguous: cb %v..%v, ups %v..%v, tes %v..%v",
			cb.StartS, cb.EndS, ups.StartS, ups.EndS, tes.StartS, tes.EndS)
	}
	// The burst span opens within a couple of ticks of the injected burst
	// start (minute 5; events fire at tick end) and brackets every phase.
	if got := spans["burst"][0]; got.StartS < 300 || got.StartS > 305 ||
		got.StartS > cb.StartS || got.EndS < tes.EndS {
		t.Fatalf("burst span %v..%v does not bracket phases (cb %v..%v, tes %v..%v)",
			got.StartS, got.EndS, cb.StartS, cb.EndS, tes.StartS, tes.EndS)
	}
}

// TestListenEndpointServesDuringRun starts a server on :0 out-of-band and
// checks the CLI-facing endpoints respond.
func TestListenEndpointServesDuringRun(t *testing.T) {
	reg := dcsprint.NewMetricRegistry()
	reg.Counter("dcsprint_sim_runs_total", "").Inc()
	srv, err := dcsprint.StartTelemetryServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/metrics", "/healthz", "/debug/pprof/"} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
	}
}

// TestEventsFormats pins the text form byte-for-byte against the event log
// and checks the json form parses as JSONL trace records.
func TestEventsFormats(t *testing.T) {
	args := []string{"-trace", "yahoo", "-degree", "3.0", "-duration", "5m", "-events"}
	textOut, err := captureStdout(t, func() error { return run(args) })
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the expected text block from the same run's event log; the
	// -events output must be byte-identical to the pre-telemetry format.
	tr, err := dcsprint.YahooTrace(1, 3.0, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dcsprint.Run(dcsprint.Scenario{Name: "yahoo", Trace: tr, DCHeadroom: 0.10, PUE: 1.53, Strategy: dcsprint.Greedy()})
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	want.WriteString("events:\n")
	for _, e := range res.Events {
		want.WriteString("  " + e.String() + "\n")
	}
	if !strings.Contains(textOut, want.String()) {
		t.Fatalf("-events text block changed.\nwant:\n%s\ngot:\n%s", want.String(), textOut)
	}

	jsonOut, err := captureStdout(t, func() error {
		return run(append(args, "-events-format", "json"))
	})
	if err != nil {
		t.Fatal(err)
	}
	// The JSONL lines follow the summary; find the first '{'.
	idx := strings.IndexByte(jsonOut, '{')
	if idx < 0 {
		t.Fatalf("no JSONL in output:\n%s", jsonOut)
	}
	recs, err := telemetry.ReadJSONL(strings.NewReader(jsonOut[idx:]))
	if err != nil {
		t.Fatalf("json events do not parse: %v\n%s", err, jsonOut)
	}
	if len(recs) == 0 {
		t.Fatal("json events empty")
	}

	if err := run(append(args, "-events-format", "yaml")); err == nil {
		t.Error("unknown -events-format accepted")
	}
}
