package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dcsprint/internal/sim"
)

// yahooSpec is the canonical test scenario: a seeded synthetic Yahoo burst,
// fully reproducible on both the client and server side.
func yahooSpec(name string) ScenarioSpec {
	return ScenarioSpec{
		Name:  name,
		Trace: &TraceSpec{Kind: "yahoo", Seed: 1, Degree: 3.2, DurationSeconds: 15 * 60},
	}
}

func yahooScenario(t *testing.T, name string) sim.Scenario {
	t.Helper()
	sc, err := yahooSpec(name).Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return sc
}

// TestManagerStreamEqualsBatch drives a session sample-by-sample through the
// manager and checks the Result is identical to the batch run.
func TestManagerStreamEqualsBatch(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()

	sc := yahooScenario(t, "stream-vs-batch")
	want, err := sim.Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	s, err := m.Create(yahooSpec("stream-vs-batch"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i, demand := range sc.Trace.Samples {
		dec, err := m.Step(s.ID, demand)
		if err != nil {
			t.Fatalf("Step %d: %v", i, err)
		}
		if dec.Tick != i {
			t.Fatalf("decision tick %d, want %d", dec.Tick, i)
		}
	}
	got, err := m.Finish(s.ID)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if !reflect.DeepEqual(NewResultView(got), NewResultView(want)) {
		t.Fatal("streamed Result differs from batch Result")
	}
	if _, err := m.Step(s.ID, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("step after finish: err = %v, want ErrNotFound", err)
	}
}

// TestHTTPStreamEqualsBatch is the full-wire equivalence check: NDJSON over
// a real TCP connection, decisions in lockstep, final ResultView identical
// to the batch run's view.
func TestHTTPStreamEqualsBatch(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	c := &Client{Base: srv.URL}
	ctx := context.Background()

	sc := yahooScenario(t, "http")
	want, err := sim.Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	s, err := c.Create(ctx, yahooSpec("http"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if s.TraceLen != sc.Trace.Len() {
		t.Fatalf("session trace len %d, want %d", s.TraceLen, sc.Trace.Len())
	}
	st, err := c.Stream(ctx, s.ID)
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	for i, demand := range sc.Trace.Samples {
		dec, err := st.StepContext(ctx, demand)
		if err != nil {
			t.Fatalf("stream step %d: %v", i, err)
		}
		if dec.Tick != i || dec.Demand != demand {
			t.Fatalf("step %d: got tick %d demand %v", i, dec.Tick, dec.Demand)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("stream close: %v", err)
	}
	got, err := c.Finish(ctx, s.ID)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if !reflect.DeepEqual(got, NewResultView(want)) {
		t.Fatal("HTTP streamed ResultView differs from batch run")
	}
}

// TestHTTPSnapshotRestoreMidPhase2 checkpoints a session over HTTP while the
// controller is in phase 2 (UPS discharge), restores it into a brand-new
// session, and checks the resumed run finishes with the identical Result.
func TestHTTPSnapshotRestoreMidPhase2(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	c := &Client{Base: srv.URL}
	ctx := context.Background()

	sc := yahooScenario(t, "snap")
	want, err := sim.Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	s, err := c.Create(ctx, yahooSpec("snap"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	st, err := c.Stream(ctx, s.ID)
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	// Drive until the controller has spent a few ticks inside phase 2.
	cut := -1
	inPhase2 := 0
	for i, demand := range sc.Trace.Samples {
		dec, err := st.StepContext(ctx, demand)
		if err != nil {
			t.Fatalf("stream step %d: %v", i, err)
		}
		if dec.Phase == 2 {
			inPhase2++
		}
		if inPhase2 == 5 {
			cut = i + 1
			break
		}
	}
	if cut < 0 {
		t.Fatal("burst never reached phase 2")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("stream close: %v", err)
	}
	doc, err := c.Snapshot(ctx, s.ID)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	restored, err := c.Restore(ctx, doc)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if restored.ID == s.ID {
		t.Fatal("restored session reused the source id")
	}
	rst, err := c.Stream(ctx, restored.ID)
	if err != nil {
		t.Fatalf("Stream restored: %v", err)
	}
	for i := cut; i < sc.Trace.Len(); i++ {
		if _, err := rst.StepContext(ctx, sc.Trace.Samples[i]); err != nil {
			t.Fatalf("restored step %d: %v", i, err)
		}
	}
	if err := rst.Close(); err != nil {
		t.Fatalf("restored stream close: %v", err)
	}
	got, err := c.Finish(ctx, restored.ID)
	if err != nil {
		t.Fatalf("Finish restored: %v", err)
	}
	if !reflect.DeepEqual(got, NewResultView(want)) {
		t.Fatal("restored session's Result differs from the uninterrupted run")
	}

	// The original session is still live and must finish identically too.
	orig, err := c.Stream(ctx, s.ID)
	if err != nil {
		t.Fatalf("Stream original: %v", err)
	}
	for i := cut; i < sc.Trace.Len(); i++ {
		if _, err := orig.StepContext(ctx, sc.Trace.Samples[i]); err != nil {
			t.Fatalf("original step %d: %v", i, err)
		}
	}
	if err := orig.Close(); err != nil {
		t.Fatalf("original stream close: %v", err)
	}
	res, err := c.Finish(ctx, s.ID)
	if err != nil {
		t.Fatalf("Finish original: %v", err)
	}
	if !reflect.DeepEqual(res, NewResultView(want)) {
		t.Fatal("original session's Result changed after being snapshotted")
	}
}

func TestSessionCapacity(t *testing.T) {
	m := NewManager(Config{MaxSessions: 2})
	defer m.Close()
	spec := ScenarioSpec{} // streaming session
	if _, err := m.Create(spec); err != nil {
		t.Fatalf("Create 1: %v", err)
	}
	s2, err := m.Create(spec)
	if err != nil {
		t.Fatalf("Create 2: %v", err)
	}
	if _, err := m.Create(spec); !errors.Is(err, ErrAtCapacity) {
		t.Fatalf("Create 3: err = %v, want ErrAtCapacity", err)
	}
	if _, err := m.Finish(s2.ID); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if _, err := m.Create(spec); err != nil {
		t.Fatalf("Create after finish: %v", err)
	}
}

func TestBackpressure(t *testing.T) {
	m := NewManager(Config{QueueDepth: 1})
	defer m.Close()

	// Deterministic check: a session already at its queue-depth allowance
	// must turn the next request away with ErrBusy and count it. Build the
	// session by hand, with its pending count pre-loaded, so no other
	// caller drains anything out from under the test.
	s := &session{id: "full", mgr: m, sh: m.shardOf("full")}
	s.queued.Store(int32(m.cfg.QueueDepth))
	if _, err := s.step(-1, 1.0, TraceContext{}); !errors.Is(err, ErrBusy) {
		t.Fatalf("step into full session queue: err = %v, want ErrBusy", err)
	}
	if m.metrics.backpressure.Value() == 0 {
		t.Fatal("backpressure counter not incremented")
	}

	// Concurrency hammer: many callers against one live session. Busy
	// replies are allowed (that is the point of the bounded queue); anything
	// else is a bug. Exercises the admission gate and the session lock under
	// the race detector.
	live, err := m.Create(ScenarioSpec{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := m.Step(live.ID, 1.0); err != nil && !errors.Is(err, ErrBusy) {
					t.Errorf("Step: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestIdleEviction(t *testing.T) {
	m := NewManager(Config{IdleTTL: 50 * time.Millisecond})
	defer m.Close()
	s, err := m.Create(ScenarioSpec{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// List never touches the idle clock, so poll it until the janitor
	// (ticking at 1s minimum) sweeps the session away.
	deadline := time.Now().Add(10 * time.Second)
	for len(m.List()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle session was not evicted")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if _, err := m.Step(s.ID, 1.0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("step after eviction: err = %v, want ErrNotFound", err)
	}
	if m.metrics.evicted.Value() == 0 {
		t.Fatal("eviction counter not incremented")
	}
}

func TestDrainOnShutdown(t *testing.T) {
	m := NewManager(Config{})
	s, err := m.Create(ScenarioSpec{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, err := m.Step(s.ID, 1.2); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	m.Close() // must not hang, must stop the session goroutine
	if _, err := m.Step(s.ID, 1.0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("step after shutdown: err = %v, want ErrNotFound", err)
	}
	if _, err := m.Create(ScenarioSpec{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after shutdown: err = %v, want ErrClosed", err)
	}
	m.Close() // idempotent
}

func TestTraceExhausted(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	spec := ScenarioSpec{Trace: &TraceSpec{Kind: "samples", Samples: []float64{1, 1.5, 1}}}
	s, err := m.Create(spec)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Step(s.ID, 1.0); err != nil {
			t.Fatalf("Step %d: %v", i, err)
		}
	}
	if _, err := m.Step(s.ID, 1.0); !errors.Is(err, ErrTraceExhausted) {
		t.Fatalf("step past trace: err = %v, want ErrTraceExhausted", err)
	}
	if _, err := m.Finish(s.ID); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []ScenarioSpec{
		{Servers: -1},
		{Servers: MaxServers + 1},
		{Trace: &TraceSpec{Kind: "nope"}},
		{Trace: &TraceSpec{Kind: "samples"}},
		{Trace: &TraceSpec{Kind: "constant"}},
		{Strategy: &StrategySpec{Kind: "nope"}},
		{Strategy: &StrategySpec{Kind: "fixed", Bound: 0.5}},
	}
	for i, spec := range bad {
		if _, err := spec.Build(); err == nil {
			t.Errorf("spec %d: Build accepted an invalid spec", i)
		}
	}
	m := NewManager(Config{})
	defer m.Close()
	if _, err := m.Create(ScenarioSpec{Trace: &TraceSpec{Kind: "nope"}}); err == nil {
		t.Error("Create accepted an invalid spec")
	}
	if m.metrics.active.Value() != 0 {
		t.Error("failed create leaked an active-session slot")
	}
}

// spaces is an endless body of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestCreateRestoreBodies: create and restore take exactly one JSON
// document. Whitespace may follow it; anything else is a 400, and a body
// over maxBodyBytes is a 413. A rejected body opens no session.
func TestCreateRestoreBodies(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	s, err := m.Create(ScenarioSpec{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	doc, err := m.Snapshot(s.ID)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if _, err := m.Finish(s.ID); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	snap, err := json.Marshal(doc)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	h := m.Handler()
	live := 0
	for _, ep := range []struct{ path, doc string }{
		{"/v1/sessions", "{}"},
		{"/v1/sessions/restore", string(snap)},
	} {
		for _, c := range []struct {
			name string
			body io.Reader
			want int
		}{
			{"trailing whitespace", strings.NewReader(ep.doc + " \n\t\r\n"), http.StatusCreated},
			{"trailing garbage", strings.NewReader(ep.doc + " trailing garbage"), http.StatusBadRequest},
			{"second document", strings.NewReader(ep.doc + ep.doc), http.StatusBadRequest},
			{"trailing brace", strings.NewReader(ep.doc + "}"), http.StatusBadRequest},
			{"oversize", io.MultiReader(strings.NewReader(ep.doc), io.LimitReader(spaces{}, maxBodyBytes)),
				http.StatusRequestEntityTooLarge},
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ep.path, c.body))
			if rec.Code != c.want {
				t.Fatalf("POST %s, %s: status %d (%s), want %d", ep.path, c.name, rec.Code, rec.Body, c.want)
			}
			if c.want == http.StatusCreated {
				live++
			}
			if n := len(m.List()); n != live {
				t.Fatalf("POST %s, %s: %d live sessions, want %d", ep.path, c.name, n, live)
			}
		}
	}
}

func TestListSessions(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	if got := m.List(); len(got) != 0 {
		t.Fatalf("fresh manager lists %d sessions", len(got))
	}
	s, err := m.Create(yahooSpec("listed"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	infos := m.List()
	if len(infos) != 1 || infos[0].ID != s.ID || infos[0].Name != "listed" {
		t.Fatalf("List = %+v", infos)
	}
}

func TestStrategySpecsRun(t *testing.T) {
	// Every strategy kind builds and serves at least one step.
	m := NewManager(Config{})
	defer m.Close()
	kinds := []StrategySpec{
		{Kind: "greedy"},
		{Kind: "fixed", Bound: 2.0},
		{Kind: "prediction", PredictedSeconds: 600},
		{Kind: "heuristic", EstimatedAvgDegree: 2.4, Flexibility: 0.1},
		{Kind: "adaptive"},
	}
	for _, k := range kinds {
		k := k
		spec := ScenarioSpec{Strategy: &k}
		s, err := m.Create(spec)
		if err != nil {
			t.Fatalf("%s: Create: %v", k.Kind, err)
		}
		if _, err := m.Step(s.ID, 2.0); err != nil {
			t.Fatalf("%s: Step: %v", k.Kind, err)
		}
		if _, err := m.Finish(s.ID); err != nil {
			t.Fatalf("%s: Finish: %v", k.Kind, err)
		}
	}
}

// TestStreamStepContext checks the cancellable step form: it matches Step on
// a live stream, and a canceled context aborts a step and reports the
// context's error while the session itself survives.
func TestStreamStepContext(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	c := &Client{Base: srv.URL}
	ctx := context.Background()

	s, err := c.Create(ctx, yahooSpec("step-ctx"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	st, err := c.Stream(ctx, s.ID)
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	dec, err := st.StepContext(ctx, 0.5)
	if err != nil {
		t.Fatalf("StepContext: %v", err)
	}
	if dec.Tick != 0 || dec.Demand != 0.5 {
		t.Fatalf("decision: %+v", dec)
	}
	// A context that is already canceled fails fast without sending the
	// demand, leaving the stream intact.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := st.StepContext(canceled, 0.5); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled StepContext: err = %v, want context.Canceled", err)
	}
	if dec, err = st.StepContext(ctx, 0.7); err != nil || dec.Tick != 1 {
		t.Fatalf("step after canceled step: %+v, %v", dec, err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := c.Finish(ctx, s.ID); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// TestConcurrentSessionOps hammers shared sessions with steps, snapshots,
// finishes and probes from many goroutines, then closes the manager while
// they and a pair of creators are still running. Every call must return a
// value or one of the documented errors, a session no other goroutine
// touches must match sim.Run exactly, and nothing may stay live after Close,
// including sessions whose create raced it.
// Run it under -race.
func TestConcurrentSessionOps(t *testing.T) {
	// Journaling widens the window between a create's admission and its
	// install, which is where a create can race Close.
	m := NewManager(Config{QueueDepth: 4}.WithDurability(t.TempDir(), 0))
	allowed := func(op string, err error) {
		if err == nil || errors.Is(err, ErrBusy) || errors.Is(err, ErrNotFound) ||
			errors.Is(err, ErrClosed) || errors.Is(err, ErrStepSeq) {
			return
		}
		t.Errorf("%s: unexpected error %v", op, err)
	}
	shared := make([]string, 6)
	for i := range shared {
		s, err := m.Create(ScenarioSpec{})
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		shared[i] = s.ID
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := shared[(g+i)%len(shared)]
				switch {
				case i == 100 && g < 4:
					// Sessions 0..3 are finished twice over; the losers
					// see ErrNotFound.
					res, err := m.Finish(shared[g%2])
					allowed("Finish", err)
					if err == nil && res == nil {
						t.Error("Finish returned neither a Result nor an error")
					}
				case i%5 == 3:
					dec, err := m.StepSeqTraced(id, int64(i/5), 1.5, TraceContext{})
					allowed("StepSeq", err)
					if err == nil && dec.Tick != i/5 {
						t.Errorf("StepSeq %d applied tick %d", i/5, dec.Tick)
					}
				case i%5 == 4:
					doc, err := m.Snapshot(id)
					allowed("Snapshot", err)
					if err == nil && len(doc.Snapshot) == 0 {
						t.Error("Snapshot returned an empty document")
					}
				default:
					_, err := m.Step(id, 1+float64(i%3))
					allowed("Step", err)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, p := range m.Probes() {
				if p.ID == "" {
					t.Error("probe without a session id")
				}
			}
		}
	}()
	var (
		createdMu sync.Mutex
		created   []string
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Create until Close turns creates away, keeping the first few
			// sessions and finishing the rest so capacity never runs out.
			for i := 0; ; i++ {
				s, err := m.Create(ScenarioSpec{})
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("Create: %v", err)
					return
				}
				createdMu.Lock()
				created = append(created, s.ID)
				createdMu.Unlock()
				if i >= 8 {
					_, err := m.Finish(s.ID)
					allowed("creator Finish", err)
				}
			}
		}()
	}

	// The control session: stepped only by this goroutine, so its Result
	// must equal an uninterrupted sim.Run.
	sc := yahooScenario(t, "untouched")
	want, err := sim.Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ctl, err := m.Create(yahooSpec("untouched"))
	if err != nil {
		t.Fatalf("Create control: %v", err)
	}
	for i, demand := range sc.Trace.Samples {
		if _, err := m.Step(ctl.ID, demand); err != nil {
			t.Fatalf("control step %d: %v", i, err)
		}
	}
	got, err := m.Finish(ctl.ID)
	if err != nil {
		t.Fatalf("control Finish: %v", err)
	}
	if !reflect.DeepEqual(NewResultView(got), NewResultView(want)) {
		t.Error("control session's Result differs from sim.Run")
	}

	m.Close()
	close(stop)
	wg.Wait()
	if n := m.metrics.active.Value(); n != 0 {
		t.Errorf("sessions_active = %v after Close", n)
	}
	if live := m.List(); len(live) != 0 {
		t.Errorf("%d sessions live after Close", len(live))
	}
	for _, id := range append(created, shared...) {
		if _, err := m.Step(id, 1); !errors.Is(err, ErrNotFound) {
			t.Errorf("step on %s after Close: err = %v, want ErrNotFound", id, err)
		}
	}
}
