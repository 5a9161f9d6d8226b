package tsdb

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"dcsprint/internal/telemetry"
)

func testHandler(t *testing.T, now int64) (*Store, *Handler, *http.ServeMux) {
	t.Helper()
	st := New(Options{})
	h := NewHandler(st, nil)
	h.clock = func() int64 { return now }
	mux := http.NewServeMux()
	h.Register(mux)
	return st, h, mux
}

func get(t *testing.T, mux *http.ServeMux, url string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest("GET", url, nil))
	return w
}

func TestHTTPList(t *testing.T) {
	st, _, mux := testHandler(t, 99_000)
	st.Series("b").Append(1000, 2)
	st.Series("a").Append(1000, 1)
	w := get(t, mux, "/debug/tsdb")
	if w.Code != 200 {
		t.Fatalf("status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type %q", ct)
	}
	var resp listResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Now != 99_000 || len(resp.Series) != 2 || resp.Series[0] != "a" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestHTTPQuery(t *testing.T) {
	st, _, mux := testHandler(t, 60_000)
	s := st.Series("x")
	for ts := int64(0); ts < 60_000; ts += 1000 {
		s.Append(ts, float64(ts/1000))
	}

	// Absolute range, explicit step.
	var resp queryResponse
	w := get(t, mux, "/debug/tsdb?series=x&from=10000&to=20000&step=5000")
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	got := resp.Series["x"]
	if len(got) != 2 || got[0].Ts != 10_000 || got[0].Count != 5 || got[0].Min != 10 || got[0].Max != 14 {
		t.Fatalf("buckets = %+v", got)
	}

	// Relative range: from=-30000 means "the last 30s before now".
	w = get(t, mux, "/debug/tsdb?series=x&from=-30000&step=30000")
	resp = queryResponse{}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.From != 30_000 || resp.To != 60_000 {
		t.Fatalf("relative range [%d, %d)", resp.From, resp.To)
	}
	if got := resp.Series["x"]; len(got) != 1 || got[0].Count != 30 {
		t.Fatalf("relative buckets = %+v", got)
	}

	// Default step targets ~240 buckets, min 1ms. from=-60000 with the
	// default to anchors the window to [now-60s, now).
	w = get(t, mux, "/debug/tsdb?series=x&from=-60000")
	resp = queryResponse{}
	json.Unmarshal(w.Body.Bytes(), &resp) //nolint:errcheck
	if resp.Step != 250 {
		t.Fatalf("default step = %d", resp.Step)
	}

	// A batch query tolerates unknown members with empty lists…
	w = get(t, mux, "/debug/tsdb?series=x,ghost&from=1&to=60000")
	resp = queryResponse{}
	json.Unmarshal(w.Body.Bytes(), &resp) //nolint:errcheck
	if w.Code != 200 || len(resp.Series["ghost"]) != 0 || len(resp.Series["x"]) == 0 {
		t.Fatalf("batch: code %d, resp %+v", w.Code, resp.Series)
	}
	// …but a single unknown series is a 404, and junk params are 400s.
	if w := get(t, mux, "/debug/tsdb?series=ghost"); w.Code != 404 {
		t.Fatalf("unknown series: %d", w.Code)
	}
	for _, bad := range []string{
		"/debug/tsdb?series=x&from=banana",
		"/debug/tsdb?series=x&from=2000&to=1000",
		"/debug/tsdb?series=x&step=nope",
		// More than maxQueryBuckets buckets, relative and absolute.
		"/debug/tsdb?series=x&from=-20001&step=1",
		"/debug/tsdb?series=x&from=1&to=10002&step=1",
		// to-from overflows int64.
		"/debug/tsdb?series=x&from=-9223372036854775807&to=9223372036854775807",
	} {
		if w := get(t, mux, bad); w.Code != 400 {
			t.Fatalf("%s: %d", bad, w.Code)
		}
	}
	// The bound itself is allowed, and a step wider than the whole int64
	// range is one bucket, not an overflow.
	for _, ok := range []string{
		"/debug/tsdb?series=x&from=1&to=10001&step=1",
		"/debug/tsdb?series=x&from=1&to=9223372036854775807&step=9223372036854775807",
	} {
		if w := get(t, mux, ok); w.Code != 200 {
			t.Fatalf("%s: %d %s", ok, w.Code, w.Body.String())
		}
	}
}

// FuzzTSDBQuery drives the range-query parameters with arbitrary strings:
// the handler must never panic, and a 200 holds at most maxQueryBuckets
// buckets per series.
func FuzzTSDBQuery(f *testing.F) {
	f.Add("x", "-60000", "", "")
	f.Add("x,ghost", "1", "60000", "5000")
	f.Add("x", "-20001", "0", "1")
	f.Add("x", "-9223372036854775807", "9223372036854775807", "")
	f.Add("x", "1", "9223372036854775807", "9223372036854775807")
	f.Add("x", "-9223372036854775808", "-1", "-9223372036854775808")
	f.Add("x{a=b}", "banana", "", "")
	st := New(Options{})
	for ts := int64(0); ts < 60_000; ts += 100 {
		st.Series("x").Append(ts, float64(ts))
	}
	h := NewHandler(st, nil)
	h.clock = func() int64 { return 60_000 }
	mux := http.NewServeMux()
	h.Register(mux)
	f.Fuzz(func(t *testing.T, series, from, to, step string) {
		q := url.Values{"series": {series}, "from": {from}, "to": {to}, "step": {step}}
		w := get(t, mux, "/debug/tsdb?"+q.Encode())
		if w.Code != 200 || series == "" {
			return
		}
		var resp queryResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 body does not decode: %v\n%s", err, w.Body.String())
		}
		for name, b := range resp.Series {
			if len(b) > maxQueryBuckets {
				t.Fatalf("series %q: %d buckets, want at most %d", name, len(b), maxQueryBuckets)
			}
		}
	})
}

func TestHTTPSLO(t *testing.T) {
	// Without a watchdog the endpoint serves empty sets, not an error.
	_, _, mux := testHandler(t, 0)
	w := get(t, mux, "/debug/slo")
	if w.Code != 200 || !strings.Contains(w.Body.String(), `"active":[]`) {
		t.Fatalf("nil watchdog: %d %s", w.Code, w.Body.String())
	}

	st := New(Options{})
	rule := Rule{Name: "hot", Agg: "max", Series: "x", Window: 10 * time.Second,
		Op: ">", Threshold: 0.5, For: 1}
	wd, err := NewWatchdog(st, []Rule{rule}, telemetry.NewRegistry(), nil)
	if err != nil {
		t.Fatalf("NewWatchdog: %v", err)
	}
	st.Series("x").Append(1000, 0.9)
	wd.Evaluate(1000)
	h := NewHandler(st, wd)
	mux = http.NewServeMux()
	h.Register(mux)
	w = get(t, mux, "/debug/slo")
	var resp sloResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(resp.Rules) != 1 || len(resp.Active) != 1 || resp.Active[0].Rule != "hot" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestHTTPDash(t *testing.T) {
	_, _, mux := testHandler(t, 0)
	w := get(t, mux, "/debug/dash")
	if w.Code != 200 {
		t.Fatalf("status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("Content-Type %q", ct)
	}
	body := w.Body.String()
	// Self-contained: polls our endpoints, references no external assets.
	for _, want := range []string{"/debug/tsdb", "/debug/slo", SeriesFleetTotalDraw, SeriesFleetSprinting} {
		if !strings.Contains(body, want) {
			t.Fatalf("dashboard lacks %q", want)
		}
	}
	for _, external := range []string{"http://", "https://", "src=", "@import"} {
		if strings.Contains(body, external) {
			t.Fatalf("dashboard references an external asset (%q)", external)
		}
	}
}

func TestHTTPQueryMalformedSeriesName(t *testing.T) {
	st, _, mux := testHandler(t, 60_000)
	st.Series("ok").Append(1000, 1)

	bad := []string{
		"bad%7Bname",   // "bad{name" — unclosed label block
		"bad%7D",       // "bad}" — close without open
		"a%7Bx%7Dtail", // "a{x}tail" — bytes after the label block
		"a%7B%7B",      // "a{{" — nested open
		"bad%09name",   // control byte
		"caf%C3%A9",    // non-ASCII
	}
	for _, name := range bad {
		w := get(t, mux, "/debug/tsdb?series=ok,"+name)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("series=%s: status %d, want 400", name, w.Code)
		}
		if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("series=%s: Content-Type %q, want JSON", name, ct)
		}
		var resp struct {
			Error  string `json:"error"`
			Series string `json:"series"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("series=%s: body %q not JSON: %v", name, w.Body.String(), err)
		}
		if resp.Error == "" || resp.Series == "" {
			t.Fatalf("series=%s: resp %+v lacks error/series", name, resp)
		}
	}

	// Labelled names of the fold families stay valid.
	goodName := DCSeriesName(SeriesFleetWorstStress, "dc-07")
	st.Series(goodName).Append(1000, 0.5)
	w := get(t, mux, "/debug/tsdb?series="+url.QueryEscape(goodName))
	if w.Code != 200 {
		t.Fatalf("labelled series rejected: %d %s", w.Code, w.Body.String())
	}

	// An oversized name is malformed, not a 404.
	w = get(t, mux, "/debug/tsdb?series="+strings.Repeat("a", 300))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("oversized name: status %d, want 400", w.Code)
	}
}
