package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dcsprint/internal/telemetry"
)

func TestSanitizeID(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"abc123.DEF_-", "abc123.DEF_-"},
		{"has space", ""},
		{`inject{le="1"}`, ""},
		{"newline\n", ""},
		{strings.Repeat("a", 100), strings.Repeat("a", maxIDLen)},
	}
	for _, c := range cases {
		if got := sanitizeID(c.in); got != c.want {
			t.Errorf("sanitizeID(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestTracePropagation drives a traced client against a traced manager and
// checks the full loop: headers echoed, step-line rids echoed, both sides'
// spans recorded with matching ids, and the step-latency exemplar carrying a
// request id.
func TestTracePropagation(t *testing.T) {
	reg := telemetry.NewRegistry()
	serverOps := telemetry.NewOpLog(0)
	flight := telemetry.NewFlightRecorder(NumShards, 16)
	m := NewManager(Config{Registry: reg, Ops: serverOps, Flight: flight})
	defer m.Close()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	clientOps := telemetry.NewOpLog(0)
	c := &Client{Base: srv.URL, Ops: clientOps, Registry: reg}
	ctx := context.Background()

	s, err := c.Create(ctx, yahooSpec("traced"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	st, err := c.Stream(ctx, s.ID)
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	const steps = 5
	for i := 0; i < steps; i++ {
		if _, err := st.StepContext(ctx, 0.5); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	lastRID := st.LastReq()
	if lastRID == "" || !strings.HasPrefix(lastRID, c.TraceID()+".") {
		t.Fatalf("LastReq = %q, want prefix %q", lastRID, c.TraceID()+".")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := c.Snapshot(ctx, s.ID); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if _, err := c.Finish(ctx, s.ID); err != nil {
		t.Fatalf("Finish: %v", err)
	}

	// Client side: create, steps, snapshot, finish all under one trace.
	clientNames := map[string]int{}
	for _, sp := range clientOps.Spans() {
		if sp.Trace != c.TraceID() {
			t.Fatalf("client span %+v has foreign trace", sp)
		}
		clientNames[sp.Name]++
	}
	if clientNames["create"] != 1 || clientNames["step"] != steps ||
		clientNames["snapshot"] != 1 || clientNames["finish"] != 1 {
		t.Fatalf("client span names = %v", clientNames)
	}

	// Server side: admission, queue-wait, step, snapshot, finish spans carry
	// the propagated trace and the session id.
	serverNames := map[string]int{}
	reqs := map[string]bool{}
	for _, sp := range serverOps.Spans() {
		serverNames[sp.Name]++
		if sp.Name == "step" {
			if sp.Trace != c.TraceID() {
				t.Fatalf("server step span trace = %q, want %q", sp.Trace, c.TraceID())
			}
			if sp.Session != s.ID {
				t.Fatalf("server step span session = %q, want %q", sp.Session, s.ID)
			}
			reqs[sp.Req] = true
		}
	}
	if serverNames["admission"] != 1 || serverNames["step"] != steps ||
		serverNames["queue-wait"] != steps || serverNames["snapshot"] != 1 ||
		serverNames["finish"] != 1 {
		t.Fatalf("server span names = %v", serverNames)
	}
	if !reqs[lastRID] {
		t.Fatalf("server step spans %v missing client's last rid %q", reqs, lastRID)
	}

	// The merged timeline nests every server span inside its client parent.
	events := telemetry.MergeTraceEvents(clientOps.Spans(), serverOps.Spans())
	parents := map[string][2]int64{}
	for _, e := range events {
		if e.Ph == "X" && e.Cat == telemetry.SideClient {
			parents[e.Args["rid"]] = [2]int64{e.Ts, e.Ts + e.Dur}
		}
	}
	nested := 0
	for _, e := range events {
		if e.Ph != "X" || e.Cat != telemetry.SideServer {
			continue
		}
		p, ok := parents[e.Args["rid"]]
		if !ok {
			continue
		}
		if e.Ts < p[0] || e.Ts+e.Dur > p[1] {
			t.Fatalf("server event %q [%d,%d] escapes client parent [%d,%d]",
				e.Name, e.Ts, e.Ts+e.Dur, p[0], p[1])
		}
		nested++
	}
	if nested == 0 {
		t.Fatal("no server events joined to client parents")
	}

	// The step-latency histogram carries a request-id exemplar.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `# {rid="`+c.TraceID()) {
		t.Error("step-latency exposition has no request-id exemplar")
	}
}

// TestTraceHeadersEchoed checks the daemon echoes the wire headers back on a
// unary request, and sanitizes hostile ids instead of reflecting them.
func TestTraceHeadersEchoed(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/sessions",
		strings.NewReader(`{"trace":{"kind":"constant","duration_seconds":10,"value":1}}`))
	req.Header.Set(HeaderTrace, "abc123")
	req.Header.Set(HeaderReq, `evil{le="1"}`)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderTrace); got != "abc123" {
		t.Errorf("trace echo = %q, want abc123", got)
	}
	if got := resp.Header.Get(HeaderReq); got != "" {
		t.Errorf("hostile req id reflected back: %q", got)
	}
	var s Session
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Finish(s.ID); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// TestStepContextRetriesBackpressure pins the retry satellite: one 429 step
// line is retried transparently and counted; a second consecutive 429
// surfaces to the caller. A stub NDJSON endpoint makes the 429s
// deterministic, which a live manager cannot.
func TestStepContextRetriesBackpressure(t *testing.T) {
	line := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions/{id}/steps", func(w http.ResponseWriter, r *http.Request) {
		rc := http.NewResponseController(w)
		rc.EnableFullDuplex() //nolint:errcheck
		w.WriteHeader(http.StatusOK)
		dec := json.NewDecoder(r.Body)
		enc := json.NewEncoder(w)
		enc.Encode(StreamHello{Hello: true, ID: r.PathValue("id")}) //nolint:errcheck
		rc.Flush()                                                  //nolint:errcheck
		for {
			var in StepRequest
			if err := dec.Decode(&in); err != nil {
				return
			}
			line++
			var out StepLine
			out.RID = in.RID
			// Lines 1, 3 and 4: backpressure. Line 2: success — so the first
			// StepContext succeeds on its retry and the second exhausts it.
			if line == 2 {
				out.Decision = &Decision{Tick: 0, Demand: in.Demand}
			} else {
				out.Err = ErrBusy.Error()
				out.Code = http.StatusTooManyRequests
			}
			if err := enc.Encode(out); err != nil {
				return
			}
			rc.Flush() //nolint:errcheck
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	reg := telemetry.NewRegistry()
	// Two attempts pins the historical semantics: one transparent retry,
	// then the 429 surfaces.
	c := &Client{Base: srv.URL, Registry: reg, Retry: RetryPolicy{MaxAttempts: 2}}
	ctx := context.Background()
	st, err := c.Stream(ctx, "fake")
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	defer st.Close()

	dec, err := st.StepContext(ctx, 0.5)
	if err != nil {
		t.Fatalf("StepContext with one 429: %v", err)
	}
	if dec.Demand != 0.5 {
		t.Fatalf("decision = %+v", dec)
	}
	retries := reg.Counter("dcsprint_client_retries_total", "Step retries after HTTP 429 backpressure")
	if got := retries.Value(); got != 1 {
		t.Fatalf("retries after recovered 429 = %v, want 1", got)
	}

	var apiErr *APIError
	if _, err := st.StepContext(ctx, 0.5); !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("double 429: err = %v, want APIError 429", err)
	}
	if got := retries.Value(); got != 2 {
		t.Fatalf("retries after exhausted 429 = %v, want 2", got)
	}
}

// TestFlightEventsRecorded checks the manager feeds the flight recorder on
// cap rejections, restore failures and backpressure.
func TestFlightEventsRecorded(t *testing.T) {
	flight := telemetry.NewFlightRecorder(NumShards, 16)
	m := NewManager(Config{MaxSessions: 1, Flight: flight})
	defer m.Close()

	s, err := m.CreateTraced(yahooSpec("pinned"), TraceContext{Trace: "tr1", Req: "tr1.1"})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := m.CreateTraced(yahooSpec("over"), TraceContext{Trace: "tr1", Req: "tr1.2"}); !errors.Is(err, ErrAtCapacity) {
		t.Fatalf("over-cap create: %v", err)
	}
	if _, err := m.RestoreTraced(SnapshotDoc{Spec: yahooSpec("r"), Snapshot: []byte("junk")}, TraceContext{}); err == nil {
		t.Fatal("junk restore succeeded")
	}
	// Backpressure against a hand-built session already at its queue-depth
	// allowance, as TestBackpressure does.
	fake := &session{id: "full", mgr: m, sh: m.shardOf("full")}
	fake.queued.Store(int32(m.cfg.QueueDepth))
	if _, err := fake.step(-1, 1.0, TraceContext{Trace: "tr1", Req: "tr1.9"}); !errors.Is(err, ErrBusy) {
		t.Fatalf("full session queue: %v", err)
	}
	if _, err := m.Finish(s.ID); err != nil {
		t.Fatalf("Finish: %v", err)
	}

	kinds := map[string]int{}
	var busy telemetry.FlightEvent
	for _, ev := range flight.Events() {
		kinds[ev.Kind]++
		if ev.Kind == telemetry.EventBackpressure {
			busy = ev
		}
	}
	if kinds[telemetry.EventCapReject] == 0 {
		t.Errorf("no cap-reject event: %v", kinds)
	}
	if kinds[telemetry.EventRestoreFail] == 0 {
		t.Errorf("no restore-fail event: %v", kinds)
	}
	if kinds[telemetry.EventBackpressure] == 0 {
		t.Errorf("no 429 event: %v", kinds)
	}
	if busy.Trace != "tr1" || busy.Req != "tr1.9" || busy.Session != "full" {
		t.Errorf("backpressure event lost its trace context: %+v", busy)
	}
}

// TestEvictionObserved checks the janitor records eviction flight events and
// spans.
func TestEvictionObserved(t *testing.T) {
	flight := telemetry.NewFlightRecorder(NumShards, 16)
	ops := telemetry.NewOpLog(0)
	m := NewManager(Config{IdleTTL: 30 * time.Millisecond, Flight: flight, Ops: ops})
	defer m.Close()

	if _, err := m.Create(yahooSpec("idle")); err != nil {
		t.Fatalf("Create: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		evicted := 0
		for _, ev := range flight.Events() {
			if ev.Kind == telemetry.EventEvict {
				evicted++
			}
		}
		if evicted > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no evict flight event within 5s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	found := false
	for _, sp := range ops.Spans() {
		if sp.Name == "evict" && sp.Side == telemetry.SideServer {
			found = true
		}
	}
	if !found {
		t.Fatal("no evict op span recorded")
	}
}

// TestQueueDepthGauges checks the per-shard queue-depth gauges appear on
// scrape.
func TestQueueDepthGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewManager(Config{Registry: reg})
	defer m.Close()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, shard := range []string{`shard="0"`, `shard="15"`} {
		if !strings.Contains(out, "dcsprint_service_queue_depth{"+shard+"}") {
			t.Errorf("exposition missing queue-depth gauge for %s", shard)
		}
	}
}
