package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func startTestServer(t *testing.T) (*Server, *Registry) {
	t.Helper()
	r := NewRegistry()
	r.Counter("dcsprint_test_hits_total", "hits").Add(7)
	s, err := StartServer("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, r
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServerMetricsEndpoint(t *testing.T) {
	s, _ := startTestServer(t)
	code, body := get(t, "http://"+s.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	samples, err := ParsePrometheus(strings.NewReader(body))
	if err != nil {
		t.Fatalf("scrape did not parse: %v\n%s", err, body)
	}
	found := false
	for _, smp := range samples {
		if smp.Name == "dcsprint_test_hits_total" && smp.Value == 7 {
			found = true
		}
	}
	if !found {
		t.Fatalf("scrape missing counter:\n%s", body)
	}
}

func TestServerHealthz(t *testing.T) {
	s, _ := startTestServer(t)
	code, body := get(t, "http://"+s.Addr()+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("GET /healthz = %d", code)
	}
	var h map[string]any
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("healthz not JSON: %v\n%s", err, body)
	}
	if h["status"] != "ok" || h["metric_families"] != 1.0 {
		t.Fatalf("healthz = %v", h)
	}
	if _, ok := h["uptime_s"]; !ok || len(h) != 3 {
		t.Fatalf("healthz fields = %v, want status, uptime_s and metric_families", h)
	}
}

// TestServerTraceEndpoint checks the lifecycle trace is not served: it is
// an export of a finished run (sim.Result.WriteTraceJSONL), not live state.
func TestServerTraceEndpoint(t *testing.T) {
	s, _ := startTestServer(t)
	if code, _ := get(t, "http://"+s.Addr()+"/trace.jsonl"); code != http.StatusNotFound {
		t.Fatalf("GET /trace.jsonl = %d, want 404", code)
	}
}

func TestServerPprofIndex(t *testing.T) {
	s, _ := startTestServer(t)
	code, _ := get(t, "http://"+s.Addr()+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ = %d", code)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	s, _ := startTestServer(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}

func TestStartServerErrors(t *testing.T) {
	if _, err := StartServer("127.0.0.1:0", nil); err == nil {
		t.Fatal("accepted nil registry")
	}
	if _, err := StartServer("definitely:not:an:addr", NewRegistry()); err == nil {
		t.Fatal("accepted bad address")
	}
}
