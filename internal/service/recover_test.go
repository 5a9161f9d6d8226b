package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"dcsprint/internal/durability"
	"dcsprint/internal/sim"
	"dcsprint/internal/telemetry"
)

// TestRecoverBitIdentical is the kill -9 acceptance test at the manager
// layer: a journaled session, cut off mid-run with a torn record on the log
// tail, must come back under its original id and finish with a Result
// bit-identical to the uninterrupted run.
func TestRecoverBitIdentical(t *testing.T) {
	dir := t.TempDir()
	sc := yahooScenario(t, "rec")
	want, err := sim.Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	// First life: step partway through, then die. SnapshotEvery well below
	// the cut so recovery exercises both the re-checkpoint and the replay.
	m1 := NewManager(Config{}.WithDurability(dir, 64))
	s, err := m1.Create(yahooSpec("rec"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	cut := 100
	for i := 0; i < cut; i++ {
		if _, err := m1.Step(s.ID, sc.Trace.Samples[i]); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	m1.Close() // journals survive a drain; only Finish/evict remove them

	// kill -9 mid-append leaves a partial record on the tail; recovery must
	// shrug it off (no acked tick lives in a partial record).
	log := filepath.Join(dir, s.ID+".log")
	f, err := os.OpenFile(log, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Second life.
	flight := telemetry.NewFlightRecorder(NumShards, 16)
	m2 := NewManager(Config{Flight: flight}.WithDurability(dir, 64))
	defer m2.Close()
	n, err := m2.Recover()
	if err != nil || n != 1 {
		t.Fatalf("Recover = %d, %v", n, err)
	}
	info, err := m2.Info(s.ID)
	if err != nil {
		t.Fatalf("recovered session lost its id: %v", err)
	}
	if info.Tick != cut {
		t.Fatalf("recovered at tick %d, want %d", info.Tick, cut)
	}
	for i := cut; i < sc.Trace.Len(); i++ {
		if _, err := m2.Step(s.ID, sc.Trace.Samples[i]); err != nil {
			t.Fatalf("post-recovery step %d: %v", i, err)
		}
	}
	got, err := m2.Finish(s.ID)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if !reflect.DeepEqual(NewResultView(got), NewResultView(want)) {
		t.Fatal("recovered session's Result differs from the uninterrupted run")
	}

	kinds := map[string]int{}
	for _, ev := range flight.Events() {
		kinds[ev.Kind]++
	}
	if kinds[telemetry.EventRestore] != 1 || kinds[telemetry.EventRestoreFail] != 0 {
		t.Fatalf("flight kinds = %v, want one restore and no restore-fail", kinds)
	}
	if ids, _ := durability.List(dir); len(ids) != 0 {
		t.Fatalf("journals left after Finish: %v", ids)
	}
}

// TestRecoverDeltaChainFastForward pins the base + delta-chain journal
// layout: checkpoints between full rewrites land as delta frames, recovery
// folds the chain onto the base instead of replaying the whole log, and the
// session still finishes bit-identical to an uninterrupted run.
func TestRecoverDeltaChainFastForward(t *testing.T) {
	dir := t.TempDir()
	sc := yahooScenario(t, "dchain")
	want, err := sim.Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	// SnapshotEvery 8 with the default 16-frame chain: checkpoints at ticks
	// 8..48 are all deltas against the tick-0 base.
	m1 := NewManager(Config{}.WithDurability(dir, 8))
	s, err := m1.Create(yahooSpec("dchain"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	cut := 50
	for i := 0; i < cut; i++ {
		if _, err := m1.Step(s.ID, sc.Trace.Samples[i]); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	m1.Close()

	st, err := durability.Load(dir, s.ID)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if st.Tick != 0 || len(st.Deltas) != 6 || len(st.Steps) != cut {
		t.Fatalf("journal layout: base tick %d, %d deltas, %d steps (want 0, 6, %d)",
			st.Tick, len(st.Deltas), len(st.Steps), cut)
	}

	reg := telemetry.NewRegistry()
	m2 := NewManager(Config{Registry: reg}.WithDurability(dir, 8))
	defer m2.Close()
	if n, err := m2.Recover(); err != nil || n != 1 {
		t.Fatalf("Recover = %d, %v", n, err)
	}
	if info, _ := m2.Info(s.ID); info.Tick != cut {
		t.Fatalf("recovered at tick %d, want %d", info.Tick, cut)
	}
	// The fold fast-forwarded to tick 48; only the post-chain ticks replayed.
	if got := reg.Counter("dcsprint_service_journal_replayed_steps_total", "").Value(); got != 2 {
		t.Fatalf("replayed %v steps, want 2 (chain should cover the rest)", got)
	}
	for i := cut; i < sc.Trace.Len(); i++ {
		if _, err := m2.Step(s.ID, sc.Trace.Samples[i]); err != nil {
			t.Fatalf("post-recovery step %d: %v", i, err)
		}
	}
	got, err := m2.Finish(s.ID)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if !reflect.DeepEqual(NewResultView(got), NewResultView(want)) {
		t.Fatal("delta-chain recovery diverged from the uninterrupted run")
	}
}

// TestRecoverTornDeltaQuarantine destroys the delta chain outright: recovery
// must quarantine just the chain, fall back to base + full log replay, and
// still come back at the acked tick with the base files untouched.
func TestRecoverTornDeltaQuarantine(t *testing.T) {
	dir := t.TempDir()
	sc := yahooScenario(t, "dtorn")
	m1 := NewManager(Config{}.WithDurability(dir, 8))
	s, err := m1.Create(yahooSpec("dtorn"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	cut := 50
	for i := 0; i < cut; i++ {
		if _, err := m1.Step(s.ID, sc.Trace.Samples[i]); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	m1.Close()
	if err := os.WriteFile(filepath.Join(dir, s.ID+".delta"), []byte("not a delta chain"), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	m2 := NewManager(Config{Registry: reg}.WithDurability(dir, 8))
	defer m2.Close()
	if n, err := m2.Recover(); err != nil || n != 1 {
		t.Fatalf("Recover = %d, %v", n, err)
	}
	if info, _ := m2.Info(s.ID); info.Tick != cut {
		t.Fatalf("recovered at tick %d, want %d", info.Tick, cut)
	}
	// Every tick came from the log — the destroyed chain contributed nothing.
	if got := reg.Counter("dcsprint_service_journal_replayed_steps_total", "").Value(); got != float64(cut) {
		t.Fatalf("replayed %v steps, want %d", got, cut)
	}
	if _, err := os.Stat(filepath.Join(dir, s.ID+".delta.corrupt")); err != nil {
		t.Fatalf("chain not quarantined: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, s.ID+".snap")); err != nil {
		t.Fatalf("base checkpoint disturbed: %v", err)
	}
}

// TestRecoverQuarantinesCorrupt checks an unrecoverable checkpoint is moved
// aside (not retried forever, not fatal to healthy neighbors).
func TestRecoverQuarantinesCorrupt(t *testing.T) {
	dir := t.TempDir()
	m1 := NewManager(Config{}.WithDurability(dir, 0))
	good, err := m1.Create(yahooSpec("good"))
	if err != nil {
		t.Fatalf("Create good: %v", err)
	}
	bad, err := m1.Create(yahooSpec("bad"))
	if err != nil {
		t.Fatalf("Create bad: %v", err)
	}
	m1.Close()
	if err := os.WriteFile(filepath.Join(dir, bad.ID+".snap"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := NewManager(Config{}.WithDurability(dir, 0))
	defer m2.Close()
	n, err := m2.Recover()
	if n != 1 || err == nil {
		t.Fatalf("Recover = %d, %v; want 1 recovered and the corrupt one reported", n, err)
	}
	if _, err := m2.Info(good.ID); err != nil {
		t.Fatalf("healthy session not recovered: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, bad.ID+".snap.corrupt")); err != nil {
		t.Fatalf("corrupt journal not quarantined: %v", err)
	}
	if ids, _ := durability.List(dir); len(ids) != 1 {
		t.Fatalf("List after quarantine = %v", ids)
	}
}

// TestStepIdempotency pins the server-side sequence protocol that makes
// reconnects exactly-once: the expected seq applies, the just-applied seq
// replays its cached decision without touching the engine, gaps are refused.
func TestStepIdempotency(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	s, err := m.Create(ScenarioSpec{}) // unbounded streaming session
	if err != nil {
		t.Fatalf("Create: %v", err)
	}

	d0, err := m.StepSeqTraced(s.ID, 0, 1.5, TraceContext{})
	if err != nil || d0.Tick != 0 {
		t.Fatalf("seq 0: %+v, %v", d0, err)
	}
	// Re-sent ack-lost step: cached decision, engine does not advance.
	d0b, err := m.StepSeqTraced(s.ID, 0, 9.9, TraceContext{})
	if err != nil {
		t.Fatalf("replayed seq 0: %v", err)
	}
	if !reflect.DeepEqual(d0, d0b) {
		t.Fatalf("cached decision differs: %+v vs %+v", d0, d0b)
	}
	if info, _ := m.Info(s.ID); info.Tick != 1 {
		t.Fatalf("replay advanced the engine to tick %d", info.Tick)
	}
	// A gap can neither skip ahead nor rewind further back.
	if _, err := m.StepSeqTraced(s.ID, 5, 1.0, TraceContext{}); !errors.Is(err, ErrStepSeq) {
		t.Fatalf("seq gap: err = %v, want ErrStepSeq", err)
	}
	// Negative seq is the legacy unsequenced path and must apply.
	if _, err := m.StepSeqTraced(s.ID, -1, 1.0, TraceContext{}); err != nil {
		t.Fatalf("legacy step: %v", err)
	}
	if d2, err := m.StepSeqTraced(s.ID, 2, 1.0, TraceContext{}); err != nil || d2.Tick != 2 {
		t.Fatalf("seq 2 after legacy: %+v, %v", d2, err)
	}
	if _, err := m.Finish(s.ID); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// TestRecoverRacesAdmission runs startup recovery concurrently with a burst
// of new Creates — the restart-under-load case — under the race detector.
func TestRecoverRacesAdmission(t *testing.T) {
	dir := t.TempDir()
	m1 := NewManager(Config{}.WithDurability(dir, 0))
	const journaled = 6
	spec := ScenarioSpec{Trace: &TraceSpec{Kind: "constant", DurationSeconds: 30, Value: 2}}
	for i := 0; i < journaled; i++ {
		s, err := m1.Create(spec)
		if err != nil {
			t.Fatalf("Create %d: %v", i, err)
		}
		for k := 0; k < 3; k++ {
			if _, err := m1.Step(s.ID, 2); err != nil {
				t.Fatalf("step: %v", err)
			}
		}
	}
	m1.Close()

	m2 := NewManager(Config{}.WithDurability(dir, 0))
	defer m2.Close()
	const admitted = 8
	var wg sync.WaitGroup
	errs := make(chan error, admitted+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		n, err := m2.Recover()
		if err != nil {
			errs <- fmt.Errorf("Recover: %w", err)
		} else if n != journaled {
			errs <- fmt.Errorf("Recover = %d, want %d", n, journaled)
		}
	}()
	for i := 0; i < admitted; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := m2.Create(spec)
			if err != nil {
				errs <- fmt.Errorf("concurrent Create: %w", err)
				return
			}
			if _, err := m2.Step(s.ID, 2); err != nil {
				errs <- fmt.Errorf("concurrent Step: %w", err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// A journal recovered while its Create was still installing it would be
	// a second, orphaned session under the same id: counted and held against
	// capacity, but missing from the map.
	m2.mu.Lock()
	count := m2.count
	m2.mu.Unlock()
	listed, active := len(m2.List()), int(m2.metrics.active.Value())
	if want := journaled + admitted; count != want || listed != want || active != want {
		t.Fatalf("count %d, %d listed, sessions_active %d; want %d each", count, listed, active, want)
	}
}

// TestHTTPResumeAfterDaemonRestart is the end-to-end failover path: the
// daemon dies mid-stream, a new one recovers the journal on the same
// address, and Client.Resume re-attaches by session id and last-acked tick —
// final Result identical to the uninterrupted run.
func TestHTTPResumeAfterDaemonRestart(t *testing.T) {
	dir := t.TempDir()
	sc := yahooScenario(t, "failover")
	want, err := sim.Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	m1 := NewManager(Config{}.WithDurability(dir, 64))
	srv1 := &http.Server{Handler: m1.Handler()}
	go srv1.Serve(ln) //nolint:errcheck

	ctx := context.Background()
	c := &Client{Base: "http://" + addr, Registry: telemetry.NewRegistry()}
	s, err := c.Create(ctx, yahooSpec("failover"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	st, err := c.Stream(ctx, s.ID)
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	cut := 80
	for i := 0; i < cut; i++ {
		if _, err := st.StepContext(ctx, sc.Trace.Samples[i]); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	lastAcked := st.LastAcked()

	// The crash: connections severed, listener gone, manager abandoned
	// without any client-visible goodbye.
	srv1.Close()
	m1.Close()

	// The restart on the same address.
	m2 := NewManager(Config{}.WithDurability(dir, 64))
	defer m2.Close()
	if n, err := m2.Recover(); err != nil || n != 1 {
		t.Fatalf("Recover = %d, %v", n, err)
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := &http.Server{Handler: m2.Handler()}
	defer srv2.Close()
	go srv2.Serve(ln2) //nolint:errcheck

	st2, err := c.Resume(ctx, s.ID, lastAcked)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if st2.Tick() != lastAcked+1 {
		t.Fatalf("resumed at tick %d, want %d", st2.Tick(), lastAcked+1)
	}
	for i := int(st2.Tick()); i < sc.Trace.Len(); i++ {
		if _, err := st2.StepContext(ctx, sc.Trace.Samples[i]); err != nil {
			t.Fatalf("resumed step %d: %v", i, err)
		}
	}
	if err := st2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	got, err := c.Finish(ctx, s.ID)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if !reflect.DeepEqual(got, NewResultView(want)) {
		t.Fatal("resumed session's Result differs from the uninterrupted run")
	}
	if c.reconnectCounter().Value() != 1 {
		t.Fatalf("reconnects = %v, want 1", c.reconnectCounter().Value())
	}
}

// TestResumeRefusesLostState pins the safety side of Resume: if the server
// greets below lastAcked+1, acked state was lost and the client must refuse
// rather than double-run ticks.
func TestResumeRefusesLostState(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: m.Handler()}
	defer srv.Close()
	go srv.Serve(ln) //nolint:errcheck

	ctx := context.Background()
	c := &Client{Base: "http://" + ln.Addr().String(), Retry: RetryPolicy{MaxAttempts: 2}}
	s, err := c.Create(ctx, ScenarioSpec{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// The session is at tick 0; claiming tick 5 was acked means 6 ticks
	// vanished.
	if _, err := c.Resume(ctx, s.ID, 5); err == nil {
		t.Fatal("Resume accepted a server behind the acked tick")
	}
	// An unknown session is permanent, not retried into oblivion.
	t0 := time.Now()
	if _, err := c.Resume(ctx, "00000000000000000000000a", -1); err == nil {
		t.Fatal("Resume of unknown session succeeded")
	}
	if time.Since(t0) > 2*time.Second {
		t.Fatal("404 resume burned the whole retry budget")
	}
}
