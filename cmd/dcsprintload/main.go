// Command dcsprintload drives a dcsprintd control plane with N concurrent
// sessions, each streaming a seeded synthetic Yahoo burst sample-by-sample,
// and reports step throughput and latency percentiles.
//
// Examples:
//
//	dcsprintload -addr http://127.0.0.1:8080 -sessions 32
//	dcsprintload -sessions 8 -degree 3.0 -duration 5m -snapshot
//	dcsprintload -sessions 4 -span-out client-spans.jsonl
//	dcsprintload -addr http://127.0.0.1:7070 -ctl-addr http://127.0.0.1:8080 -verify
//	dcsprintload -dcs 64 -sessions 256   # fleet mode against dcsprintd -fleet
//	dcsprintload -sessions 100000 -concurrency 512 -ticks 12
//
// The last shape is the scale soak: -concurrency bounds how many of the
// -sessions run at once (0 means all at once), so a six-figure session count
// passes through the daemon's session map in waves without exhausting
// client-side sockets, and -ticks finishes each session after N steps
// instead of streaming the full synthetic trace, keeping the total step
// count proportional to the session count.
//
// With -dcs N the daemon is expected to run in -fleet mode: sessions are
// created through the fleet router (POST /v1/fleet/sessions), which spreads
// them across DC profiles and spills off exhausted ledgers, and the summary
// breaks step latency down per DC (p50/p99) with spill counts.
//
// Each session runs under its own trace id; every request carries a request
// id the daemon echoes and tags its own spans with, so the slowest request
// printed at the end can be looked up in the daemon's flight recorder and in
// the merged timeline (traces -merge). Busy replies (HTTP 429 backpressure)
// are retried with a short backoff and counted; a broken steps stream is
// healed with Resume (counted as a reconnect, with any acked-but-unseen
// ticks counted as replay-skipped); any other error fails the run and the
// exit status.
//
// The last example is the chaos shape: steps flow through a fault-injecting
// proxy (-addr) while create/finish go straight to the daemon (-ctl-addr),
// and -verify re-simulates every session locally and requires the daemon's
// Result to be bit-identical — the end-to-end exactly-once check.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dcsprint/internal/fleet"
	"dcsprint/internal/service"
	"dcsprint/internal/sim"
	"dcsprint/internal/telemetry"
	"dcsprint/internal/version"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dcsprintload:", err)
		os.Exit(1)
	}
}

// latencyBuckets spans 10µs..5s: HTTP lockstep round trips land in the
// hundreds of microseconds on loopback, seconds under backpressure.
func latencyBuckets() []float64 {
	return []float64{
		1e-5, 2.5e-5, 5e-5,
		1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
		1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5,
	}
}

// slowest tracks the worst observed request across all workers.
type slowest struct {
	mu    sync.Mutex
	dur   time.Duration
	rid   string
	trace string
}

func (s *slowest) note(d time.Duration, rid, trace string) {
	s.mu.Lock()
	if d > s.dur {
		s.dur, s.rid, s.trace = d, rid, trace
	}
	s.mu.Unlock()
}

// worker is one session's life: create, stream every sample, heal stream
// breaks with Resume, optionally checkpoint+restore halfway, finish. Each
// worker owns a data-plane Client so it gets its own trace id; unary ops go
// through ctl, which bypasses any chaos proxy sitting on the step path.
type worker struct {
	id      int
	c       *service.Client // steps (possibly via a chaos proxy)
	ctl     *service.Client // create/snapshot/restore/finish
	fc      *fleet.Client   // fleet-routed create (-dcs); nil in direct mode
	hist    *telemetry.Histogram
	slow    *slowest
	verify  bool
	steps   int64
	heals   int64 // successful Resumes after an unplanned stream break
	skipped int64 // ticks applied+journaled server-side whose acks we never saw

	dc      string    // serving DC in fleet mode
	spilled bool      // routed off the round-robin home DC
	lats    []float64 // per-step latencies (seconds), kept only in fleet mode
}

func run(args []string) error {
	fs := flag.NewFlagSet("dcsprintload", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "http://127.0.0.1:8080", "dcsprintd base URL for the steps stream")
		ctlAddr  = fs.String("ctl-addr", "", "base URL for unary ops (create/finish); default -addr — set it to bypass a chaos proxy")
		sessions = fs.Int("sessions", 8, "total sessions to run")
		conc     = fs.Int("concurrency", 0, "max sessions in flight at once; 0 means all at once")
		ticks    = fs.Int("ticks", 0, "steps per session before finishing early; 0 means the full trace")
		seed     = fs.Int64("seed", 1, "base trace seed; session i uses seed+i")
		degree   = fs.Float64("degree", 3.2, "yahoo burst degree")
		duration = fs.Duration("duration", 15*time.Minute, "yahoo burst duration (simulated)")
		snapshot = fs.Bool("snapshot", false, "checkpoint and restore each session halfway through")
		dcs      = fs.Int("dcs", 0, "fleet mode: create sessions through the fleet router of a dcsprintd -fleet daemon and report per-DC latency (0 disables)")
		verify   = fs.Bool("verify", false, "re-simulate each session locally and require a bit-identical Result")
		timeout  = fs.Duration("timeout", 10*time.Minute, "overall wall-clock budget")
		spanOut  = fs.String("span-out", "", "write client-side spans as JSONL to this file (merge with traces -merge)")
		showVer  = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVer {
		fmt.Println(version.String())
		return nil
	}
	if *sessions < 1 {
		return fmt.Errorf("-sessions must be >= 1")
	}
	if *ctlAddr == "" {
		*ctlAddr = *addr
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	reg := telemetry.NewRegistry()
	hist := reg.Histogram("dcsprintload_step_seconds",
		"Client-observed lockstep round-trip latency", latencyBuckets())
	var ops *telemetry.OpLog
	if *spanOut != "" {
		ops = telemetry.NewOpLog(0)
	}
	slow := &slowest{}
	// Generous reconnect budget: a daemon restart takes seconds, and giving
	// up mid-soak turns a survivable blip into a failed run.
	retry := service.RetryPolicy{MaxAttempts: 40, MaxBackoff: 500 * time.Millisecond,
		OpTimeout: 5 * time.Second}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		steps    atomic.Int64
		heals    atomic.Int64
		skipped  atomic.Int64
		verified atomic.Int64
	)
	fail := func(id int, err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = fmt.Errorf("session %d: %w", id, err)
		}
		mu.Unlock()
		cancel()
	}

	// In-flight cap: each waiting goroutine is a few KB, so even 100k queued
	// sessions cost little until their wave starts.
	var sem chan struct{}
	if *conc > 0 {
		sem = make(chan struct{}, *conc)
	}

	start := time.Now()
	workers := make([]*worker, 0, *sessions)
	for i := 0; i < *sessions; i++ {
		wg.Add(1)
		w := &worker{
			id:     i,
			c:      &service.Client{Base: *addr, Ops: ops, Registry: reg, Retry: retry},
			hist:   hist,
			slow:   slow,
			verify: *verify,
		}
		w.ctl = w.c
		if *ctlAddr != *addr {
			w.ctl = &service.Client{Base: *ctlAddr, Ops: ops, Registry: reg, Retry: retry}
		}
		if *dcs > 0 {
			w.fc = &fleet.Client{Base: *ctlAddr}
		}
		workers = append(workers, w)
		go func() {
			defer wg.Done()
			if sem != nil {
				select {
				case sem <- struct{}{}:
					defer func() { <-sem }()
				case <-ctx.Done():
					fail(w.id, ctx.Err())
					return
				}
			}
			if err := w.drive(ctx, *seed+int64(w.id), *degree, *duration, *ticks, *snapshot); err != nil {
				fail(w.id, err)
				return
			}
			steps.Add(w.steps)
			heals.Add(w.heals)
			skipped.Add(w.skipped)
			if w.verify {
				verified.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return firstErr
	}

	retries := reg.Counter("dcsprint_client_retries_total",
		"Step retries after HTTP 429 backpressure").Value()
	n := steps.Load()
	fmt.Printf("sessions: %d, steps: %d, errors: 0, busy retries: %.0f\n",
		*sessions, n, retries)
	fmt.Printf("reconnects: %d, replay-skipped ticks: %d\n", heals.Load(), skipped.Load())
	if *verify {
		fmt.Printf("verified: %d/%d results bit-identical to local re-simulation\n",
			verified.Load(), *sessions)
	}
	fmt.Printf("wall: %v, throughput: %.0f steps/s\n",
		elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds())
	fmt.Printf("step latency p50: %v, p99: %v, max: %v\n",
		time.Duration(hist.Quantile(0.50)*float64(time.Second)).Round(time.Microsecond),
		time.Duration(hist.Quantile(0.99)*float64(time.Second)).Round(time.Microsecond),
		slow.dur.Round(time.Microsecond))
	if slow.rid != "" {
		fmt.Printf("slowest request: rid=%s trace=%s (%v) — grep it in the daemon's /debug/events and span JSONL\n",
			slow.rid, slow.trace, slow.dur.Round(time.Microsecond))
	}
	if *dcs > 0 {
		printFleetSummary(ctx, workers, *ctlAddr)
	}
	if ops != nil {
		if err := writeSpans(*spanOut, ops); err != nil {
			return fmt.Errorf("writing %s: %w", *spanOut, err)
		}
		fmt.Printf("wrote %d client spans to %s (%d dropped)\n", ops.Len(), *spanOut, ops.Dropped())
	}
	return nil
}

// quantile returns the q-quantile of sorted (exact, nearest-rank).
func quantile(sorted []float64, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return time.Duration(sorted[i] * float64(time.Second))
}

// printFleetSummary breaks the run down per DC: sessions served, sessions
// spilled in by the router, and exact step-latency percentiles from the
// workers' own samples. The daemon's /v1/fleet totals follow, so a run can
// be cross-checked against the router's accounting.
func printFleetSummary(ctx context.Context, workers []*worker, ctlAddr string) {
	type dcAgg struct {
		sessions int
		spilled  int
		lats     []float64
	}
	agg := map[string]*dcAgg{}
	for _, w := range workers {
		if w.dc == "" {
			continue
		}
		a := agg[w.dc]
		if a == nil {
			a = &dcAgg{}
			agg[w.dc] = a
		}
		a.sessions++
		if w.spilled {
			a.spilled++
		}
		a.lats = append(a.lats, w.lats...)
	}
	names := make([]string, 0, len(agg))
	for dc := range agg {
		names = append(names, dc)
	}
	sort.Strings(names)
	fmt.Printf("fleet: %d DCs served sessions\n", len(names))
	for _, dc := range names {
		a := agg[dc]
		sort.Float64s(a.lats)
		fmt.Printf("  %s: sessions=%d spilled-in=%d steps=%d p50=%v p99=%v\n",
			dc, a.sessions, a.spilled, len(a.lats),
			quantile(a.lats, 0.50).Round(time.Microsecond),
			quantile(a.lats, 0.99).Round(time.Microsecond))
	}
	fc := &fleet.Client{Base: ctlAddr}
	st, err := fc.Status(ctx)
	if err != nil {
		fmt.Printf("fleet status: unavailable (%v)\n", err)
		return
	}
	fmt.Printf("fleet router: routed=%d spilled=%d rejected=%d across %d DCs\n",
		st.Routed, st.Spilled, st.Rejected, len(st.DCs))
}

func writeSpans(path string, ops *telemetry.OpLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ops.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (w *worker) drive(ctx context.Context, seed int64, degree float64, duration time.Duration, ticks int, snapshot bool) error {
	spec := service.ScenarioSpec{
		Name: fmt.Sprintf("load-%d", w.id),
		Trace: &service.TraceSpec{
			Kind:            "yahoo",
			Seed:            seed,
			Degree:          degree,
			DurationSeconds: duration.Seconds(),
		},
	}
	var s *service.Session
	if w.fc != nil {
		rs, err := w.fc.Create(ctx, spec)
		if err != nil {
			return fmt.Errorf("fleet create: %w", err)
		}
		w.dc, w.spilled = rs.DC, rs.Spilled
		s = &rs.Session
	} else {
		var err error
		if s, err = w.ctl.Create(ctx, spec); err != nil {
			return fmt.Errorf("create: %w", err)
		}
	}
	id := s.ID
	// -ticks finishes the session early; the protocol allows Finish at any
	// tick, so a soak can push session count without paying full traces.
	limit := s.TraceLen
	if ticks > 0 && ticks < limit {
		limit = ticks
	}
	half := limit / 2
	snapped := !snapshot
	st, err := w.c.Resume(ctx, id, -1)
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	// The load shape does not affect service latency; a constant demand above
	// capacity keeps the controller in its sprinting phases all run long.
	for tick := int(st.Tick()); tick < limit; {
		if !snapped && tick >= half {
			snapped = true
			if err := st.Close(); err != nil {
				return fmt.Errorf("close for snapshot: %w", err)
			}
			doc, err := w.ctl.Snapshot(ctx, id)
			if err != nil {
				return fmt.Errorf("snapshot: %w", err)
			}
			if _, err := w.ctl.Finish(ctx, id); err != nil {
				return fmt.Errorf("finish pre-restore: %w", err)
			}
			restored, err := w.ctl.Restore(ctx, doc)
			if err != nil {
				return fmt.Errorf("restore: %w", err)
			}
			id = restored.ID
			if st, err = w.c.Resume(ctx, id, int64(tick)-1); err != nil {
				return fmt.Errorf("stream restored: %w", err)
			}
		}
		err := w.step(ctx, st, degree)
		if err == nil {
			tick++
			continue
		}
		var apiErr *service.APIError
		if errors.As(err, &apiErr) || ctx.Err() != nil {
			// Server-side errors and cancellation are real failures; only
			// transport breaks are healed below.
			return fmt.Errorf("step %d: %w", tick, err)
		}
		// The stream died under us — re-attach at the last acked tick. The
		// server may greet from further ahead: those ticks were applied and
		// journaled but their acks died on the wire.
		st.Close() //nolint:errcheck // the conn is already dead
		lastAcked := st.LastAcked()
		if st, err = w.c.Resume(ctx, id, lastAcked); err != nil {
			return fmt.Errorf("resume at tick %d: %w", tick, err)
		}
		w.heals++
		w.skipped += st.Tick() - (lastAcked + 1)
		tick = int(st.Tick())
	}
	if err := st.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	got, err := w.ctl.Finish(ctx, id)
	if err != nil {
		return fmt.Errorf("finish: %w", err)
	}
	if w.verify {
		// Re-simulate locally with the exact demand sequence the workers
		// sent (constant degree, not the scenario's own trace) — the server
		// Result must match bit for bit no matter how many times the stream
		// broke, the daemon restarted, or ticks were replayed from journal.
		sc, err := spec.Build()
		if err != nil {
			return fmt.Errorf("verify build: %w", err)
		}
		eng, err := sim.New(sc)
		if err != nil {
			return fmt.Errorf("verify engine: %w", err)
		}
		for tick := 0; tick < limit; tick++ {
			if _, err := eng.Step(degree); err != nil {
				return fmt.Errorf("verify step %d: %w", tick, err)
			}
		}
		want, err := eng.Finish()
		if err != nil {
			return fmt.Errorf("verify finish: %w", err)
		}
		if !reflect.DeepEqual(got, service.NewResultView(want)) {
			return fmt.Errorf("verify: server Result differs from local re-simulation")
		}
	}
	return nil
}

// step times one lockstep round trip. StepContext already retries 429s with
// jittered backoff under the client's policy (counted in
// dcsprint_client_retries_total); the loop here absorbs backpressure that
// outlives the whole budget, which the client deliberately leaves to
// callers. Transport errors return to drive, which owns failover.
func (w *worker) step(ctx context.Context, st *service.Stream, demand float64) error {
	for {
		t0 := time.Now()
		_, err := st.StepContext(ctx, demand)
		if err == nil {
			d := time.Since(t0)
			w.hist.ObserveWithExemplar(d.Seconds(), st.LastReq())
			w.slow.note(d, st.LastReq(), w.c.TraceID())
			if w.fc != nil {
				w.lats = append(w.lats, d.Seconds())
			}
			w.steps++
			return nil
		}
		var apiErr *service.APIError
		if errors.As(err, &apiErr) && apiErr.Status == 429 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(2 * time.Millisecond):
			}
			continue
		}
		return err
	}
}
