package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dcsprint/internal/telemetry"
)

// stubSteps serves a steps stream: the hello line, then reply(line, req)
// for each input line until reply returns nil.
func stubSteps(reply func(n int, in StepRequest) *StepLine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rc := http.NewResponseController(w)
		rc.EnableFullDuplex() //nolint:errcheck
		w.WriteHeader(http.StatusOK)
		dec := json.NewDecoder(r.Body)
		enc := json.NewEncoder(w)
		enc.Encode(StreamHello{Hello: true, ID: r.PathValue("id")}) //nolint:errcheck
		rc.Flush()                                                  //nolint:errcheck
		for n := 1; ; n++ {
			var in StepRequest
			if err := dec.Decode(&in); err != nil {
				return
			}
			out := reply(n, in)
			if out == nil {
				return
			}
			if err := enc.Encode(out); err != nil {
				return
			}
			rc.Flush() //nolint:errcheck
		}
	}
}

func TestRetryHintBounds(t *testing.T) {
	cases := []struct {
		n    float64
		unit time.Duration
		want time.Duration
	}{
		{5, time.Millisecond, 5 * time.Millisecond},
		{3_600_000, time.Millisecond, time.Hour},
		{3_600_001, time.Millisecond, 0},
		{9_000_000_000_000, time.Millisecond, 0}, // 285 years
		{1 << 62, time.Millisecond, 0},           // would overflow a Duration
		{0, time.Millisecond, 0},
		{-1, time.Millisecond, 0},
		{0.5, time.Second, 500 * time.Millisecond},
	}
	for _, c := range cases {
		if got := retryHint(c.n, c.unit); got != c.want {
			t.Errorf("retryHint(%v, %v) = %v, want %v", c.n, c.unit, got, c.want)
		}
	}
}

// TestStepContextIgnoresOverlongLineHint: an in-stream 429 whose
// retry_after_ms is absurd must not stall the client. StepContext discards
// the hint and retries on its own backoff.
func TestStepContextIgnoresOverlongLineHint(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions/{id}/steps", stubSteps(func(n int, in StepRequest) *StepLine {
		if n == 1 {
			return &StepLine{RID: in.RID, Err: ErrBusy.Error(), Code: http.StatusTooManyRequests,
				RetryAfterMs: 9_000_000_000_000}
		}
		return &StepLine{RID: in.RID, Decision: &Decision{Tick: 0, Demand: in.Demand}}
	}))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := &Client{Base: srv.URL, Registry: telemetry.NewRegistry(), Retry: RetryPolicy{MaxAttempts: 2}}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st, err := c.Stream(ctx, "fake")
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	defer st.Close()
	dec, err := st.StepContext(ctx, 0.5)
	if err != nil {
		t.Fatalf("StepContext after a 429 with a 285-year hint: %v", err)
	}
	if dec.Demand != 0.5 {
		t.Fatalf("decision = %+v", dec)
	}
}

// TestStepDeadlineWhileReplyWithheld: a step whose reply never comes ends at
// its deadline with the context's error, and the same Client then finishes
// the session on a fresh connection.
func TestStepDeadlineWhileReplyWithheld(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	// The stub withholds its reply until the test ends: under full duplex
	// the server does not notice the client hanging up while it is not
	// reading.
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.Handle("/", m.Handler())
	mux.HandleFunc("POST /v1/sessions/{id}/steps", stubSteps(func(int, StepRequest) *StepLine {
		<-release
		return nil
	}))
	srv := httptest.NewServer(mux)
	defer srv.Close()
	defer close(release)

	c := &Client{Base: srv.URL}
	ctx := context.Background()
	s, err := c.Create(ctx, ScenarioSpec{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	st, err := c.Stream(ctx, s.ID)
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	sctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, err := st.StepContext(sctx, 1.5); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("withheld step: err = %v, want context.DeadlineExceeded", err)
	}
	if _, err := st.StepContext(ctx, 1.5); err == nil {
		t.Fatal("step on a torn-down stream succeeded")
	}
	st.Close() //nolint:errcheck
	if _, err := c.Finish(ctx, s.ID); err != nil {
		t.Fatalf("Finish after the aborted stream: %v", err)
	}
}

// TestStreamCancelRacesStep cancels a stepping stream at arbitrary points,
// so the teardown runs while a step's write or read is in flight. Every step
// returns a decision or the context's error, and the session stays usable.
// Run it under -race.
func TestStreamCancelRacesStep(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	c := &Client{Base: srv.URL}
	ctx := context.Background()
	s, err := c.Create(ctx, ScenarioSpec{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < 20; i++ {
		st, err := c.Stream(ctx, s.ID)
		if err != nil {
			t.Fatalf("round %d: Stream: %v", i, err)
		}
		sctx, cancel := context.WithCancel(ctx)
		time.AfterFunc(time.Duration(i)*100*time.Microsecond, cancel)
		for {
			if _, err := st.StepContext(sctx, 1.5); err != nil {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("round %d: step: err = %v, want nil or context.Canceled", i, err)
				}
				break
			}
		}
		st.Close() //nolint:errcheck
	}
	if _, err := c.Finish(ctx, s.ID); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// TestStreamCloseBeforeStep: a stream closed before its first step ends
// cleanly, and the session takes a new stream and steps on it.
func TestStreamCloseBeforeStep(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	c := &Client{Base: srv.URL}
	ctx := context.Background()

	s, err := c.Create(ctx, ScenarioSpec{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	st, err := c.Stream(ctx, s.ID)
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close before any step: %v", err)
	}
	if _, err := st.StepContext(ctx, 1.5); err == nil {
		t.Fatal("StepContext after Close succeeded")
	}
	st, err = c.Stream(ctx, s.ID)
	if err != nil {
		t.Fatalf("second Stream: %v", err)
	}
	if d, err := st.StepContext(ctx, 1.5); err != nil || d.Tick != 0 {
		t.Fatalf("first step on the second stream: %+v, %v", d, err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := c.Finish(ctx, s.ID); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// TestStreamOpenNotFoundReleasesWriter: a refused stream open ends the
// request body, so the Transport's write goroutine exits with the
// connection instead of waiting on the body forever.
func TestStreamOpenNotFoundReleasesWriter(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	c := &Client{Base: srv.URL, HTTP: &http.Client{Transport: tr}, Retry: RetryPolicy{MaxAttempts: 1}}

	base := runtime.NumGoroutine()
	var apiErr *APIError
	if _, err := c.Stream(context.Background(), "00000000000000000000000a"); !errors.As(err, &apiErr) ||
		apiErr.Status != http.StatusNotFound {
		t.Fatalf("Stream on an unknown session: err = %v, want APIError 404", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines %d > baseline %d after a refused open:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamNeedsWriterTo: a transport that reads request bodies instead of
// copying them through io.WriterTo cannot carry a steps stream, and says so.
func TestStreamNeedsWriterTo(t *testing.T) {
	reading := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		_, err := io.ReadAll(req.Body)
		req.Body.Close()
		return nil, err
	})
	c := &Client{Base: "http://dcsprint.invalid", HTTP: &http.Client{Transport: reading}}
	if _, err := c.Stream(context.Background(), "fake"); !errors.Is(err, errStepBodyRead) {
		t.Fatalf("Stream over a body-reading transport: err = %v, want errStepBodyRead", err)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestChurnReusesOneConnection pins connection reuse across whole session
// lifetimes: fifty create → stream → 12 steps → close → finish rounds on one
// Client dial exactly one connection.
func TestChurnReusesOneConnection(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	var dials atomic.Int64
	var d net.Dialer
	tr := &http.Transport{
		MaxConnsPerHost: 1,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}
	defer tr.CloseIdleConnections()
	c := &Client{Base: srv.URL, HTTP: &http.Client{Transport: tr}, Retry: RetryPolicy{MaxAttempts: 1}}
	ctx := context.Background()

	for round := 0; round < 50; round++ {
		s, err := c.Create(ctx, ScenarioSpec{})
		if err != nil {
			t.Fatalf("round %d: Create: %v", round, err)
		}
		st, err := c.Stream(ctx, s.ID)
		if err != nil {
			t.Fatalf("round %d: Stream: %v", round, err)
		}
		for i := 0; i < 12; i++ {
			if _, err := st.StepContext(ctx, 1.5); err != nil {
				t.Fatalf("round %d: step %d: %v", round, i, err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatalf("round %d: Close: %v", round, err)
		}
		if _, err := c.Finish(ctx, s.ID); err != nil {
			t.Fatalf("round %d: Finish: %v", round, err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("50 churn rounds dialed %d connections, want 1", n)
	}
}
