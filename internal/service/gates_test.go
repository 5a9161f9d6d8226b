//go:build !race

// The race detector's instrumentation allocates, so the allocation bounds
// below hold only in a build without it. Each bound is a test beside the
// benchmark it reads, sharing its setup.

package service

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"dcsprint/internal/telemetry"
	"dcsprint/internal/workload"
)

// stepWireRoundTrip is one lockstep round trip's codec work with reused
// buffers: encode and decode a request line, then a decision line. Calls
// walk the seed-1 reference session's 1,800 lines in order through one
// stream's memos, and start a new stream, with empty memos, at its end.
func stepWireRoundTrip(tb testing.TB) func() {
	reqs, lines := refStepLines(tb)
	var (
		buf         []byte
		enc         stepEncoder
		reqDec, dec stepDecoder
		gotReq      StepRequest
		gotLine     StepLine
		err         error
		i           int
	)
	return func() {
		if i == len(lines) {
			i, enc, reqDec, dec = 0, stepEncoder{}, stepDecoder{}, stepDecoder{}
		}
		if buf, err = appendStepRequest(buf[:0], &reqs[i]); err != nil {
			tb.Fatal(err)
		}
		if err = reqDec.decodeStepRequest(buf[:len(buf)-1], &gotReq); err != nil {
			tb.Fatal(err)
		}
		if buf, err = enc.appendStepLine(buf[:0], &lines[i]); err != nil {
			tb.Fatal(err)
		}
		if err = dec.decodeStepLine(buf[:len(buf)-1], &gotLine); err != nil {
			tb.Fatal(err)
		}
		i++
	}
}

// BenchmarkStepWire times stepWireRoundTrip.
func BenchmarkStepWire(b *testing.B) {
	roundTrip := stepWireRoundTrip(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}

// TestStepWireAllocs: the only allocations are the decoded values, the
// request's seq and rid, the decision and its rid.
func TestStepWireAllocs(t *testing.T) {
	const maxAllocs = 4
	if allocs := testing.AllocsPerRun(100, stepWireRoundTrip(t)); allocs > maxAllocs {
		t.Fatalf("a step-wire round trip allocates %.0f times, want at most %d", allocs, maxAllocs)
	}
}

// sessionStep is Manager.Step on one streaming session: lookup, admission,
// session lock and engine step, the path the daemon's throughput rests on.
func sessionStep(tb testing.TB) func() {
	m := NewManager(Config{})
	tb.Cleanup(m.Close)
	s, err := m.Create(ScenarioSpec{})
	if err != nil {
		tb.Fatalf("Create: %v", err)
	}
	return func() {
		if _, err := m.Step(s.ID, 1.5); err != nil {
			tb.Fatalf("Step: %v", err)
		}
	}
}

// BenchmarkServiceSession times sessionStep.
func BenchmarkServiceSession(b *testing.B) {
	step := sessionStep(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestServiceSessionAllocs: a session step on the caller's goroutine does
// not allocate.
func TestServiceSessionAllocs(t *testing.T) {
	if allocs := testing.AllocsPerRun(1000, sessionStep(t)); allocs != 0 {
		t.Fatalf("Manager.Step allocates %.0f times, want 0", allocs)
	}
}

// streamStep is one lockstep StepContext round trip through the real
// client and server over loopback, on a stream warmed by 100 steps. The
// steps walk the seed-1 reference trace's demands, cycling, so they mix
// idle, sprint and recharge ticks as the benchmark's stream workload does.
func streamStep(tb testing.TB) func() {
	tr, err := workload.SyntheticYahoo(1, 3.2, 15*time.Minute)
	if err != nil {
		tb.Fatalf("SyntheticYahoo: %v", err)
	}
	m := NewManager(Config{Registry: telemetry.NewRegistry()})
	tb.Cleanup(m.Close)
	srv := httptest.NewServer(m.Handler())
	tb.Cleanup(srv.Close)
	c := &Client{Base: srv.URL, Registry: telemetry.NewRegistry()}
	ctx := context.Background()
	s, err := c.Create(ctx, ScenarioSpec{})
	if err != nil {
		tb.Fatalf("Create: %v", err)
	}
	st, err := c.Stream(ctx, s.ID)
	if err != nil {
		tb.Fatalf("Stream: %v", err)
	}
	tb.Cleanup(func() { st.Close() })
	i := 0
	step := func() {
		if _, err := st.StepContext(ctx, tr.Samples[i]); err != nil {
			tb.Fatalf("StepContext: %v", err)
		}
		i = (i + 1) % len(tr.Samples)
	}
	for i := 0; i < 100; i++ {
		step()
	}
	return step
}

// BenchmarkStreamStep times streamStep.
func BenchmarkStreamStep(b *testing.B) {
	step := streamStep(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestStreamStepAllocs: a loopback step allocates the request id, the two
// decoded rids, the decision, the decoded seq, the step-latency exemplar
// and once in net/http's chunked response writer.
func TestStreamStepAllocs(t *testing.T) {
	const maxAllocs = 7
	if allocs := testing.AllocsPerRun(1000, streamStep(t)); allocs > maxAllocs {
		t.Fatalf("a loopback StepContext allocates %.0f times, want at most %d", allocs, maxAllocs)
	}
}
