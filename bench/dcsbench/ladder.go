package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dcsprint/internal/durability"
	"dcsprint/internal/service"
	"dcsprint/internal/sim"
	"dcsprint/internal/telemetry"
	"dcsprint/internal/tsdb"
)

// ladder is the traced run: it replays the reference inputs through each
// layer's public entry points, bottom rung first, with a span around every
// call, and reports each layer's metrics plus each rung's marginal cost over
// the rung below:
//
//	sim.step → sim.batch_step → service.step → service.wire_step → dcsprintd
//
// The layers are named after the modules: sim (Engine, Batch, snapshots —
// the controller and plant packages are reached only through Engine.Step),
// service (Manager, and the NDJSON wire via Client and Stream), durability
// (Journal), tsdb (PlantSink), campaign (Sweep), and dcsprintd, the process
// seen from outside.
type ladder struct {
	cfg config
	tr  *tracer
	rec *record

	// Per-step p50s in microseconds, for the marginal costs.
	simStep, batchStep, serviceStep, wireStep, daemonStep float64
}

func runLadder(ctx context.Context, cfg config, rec *record) error {
	l := &ladder{cfg: cfg, tr: newTracer(), rec: rec}
	rungs := []struct {
		name string
		fn   func(context.Context, uint64) error
	}{
		{"sim", l.sim},
		{"service", l.service},
		{"wire", l.wire},
		{"durability", l.durability},
		{"tsdb", l.tsdb},
		{"campaign", l.campaign},
		{"dcsprintd", l.dcsprintd},
	}
	for _, r := range rungs {
		id, t0 := l.tr.id(), time.Now()
		if err := r.fn(ctx, id); err != nil {
			return fmt.Errorf("%s rung: %w", r.name, err)
		}
		l.tr.rec(id, 0, "rung."+r.name, "rung."+r.name, t0, time.Now())
	}
	rec.add("ladder.batch_over_sim_us", l.batchStep-l.simStep, "us")
	rec.add("ladder.service_over_batch_us", l.serviceStep-l.batchStep, "us")
	rec.add("ladder.wire_over_service_us", l.wireStep-l.serviceStep, "us")
	rec.add("dcsprintd.overhead_us", l.daemonStep-l.wireStep, "us")

	path := filepath.Join(cfg.out, "spans.jsonl")
	if err := l.tr.writeJSONL(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	rec.notes = append(rec.notes, fmt.Sprintf("spans %d written to %s, %d dropped", len(l.tr.spans), path, l.tr.dropped))
	return nil
}

// allocsPer returns the heap allocations fn makes, divided by n.
func allocsPer(n int, fn func() error) (float64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), err
}

// heapDelta returns the live-heap growth, in KiB per object, across build,
// which makes n objects and keeps them reachable until it returns.
func heapDelta(n int, build func() (keep any, err error)) (float64, error) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	keep, err := build()
	runtime.GC()
	runtime.ReadMemStats(&b)
	runtime.KeepAlive(keep)
	return (float64(b.HeapAlloc) - float64(a.HeapAlloc)) / float64(n) / 1024, err
}

// sim is the engine rung: Engine.Step over the stream inputs, bucketed by
// regime; Batch.StepAll over batchSessions reference sessions; engine
// construction, finish, snapshots and sim.Run.
func (l *ladder) sim(ctx context.Context, parent uint64) error {
	cfg, tr := l.cfg, l.tr
	sc, err := refSpec().Build()
	if err != nil {
		return err
	}
	var (
		all, idle, sprint, fallback timings
		fin1800, snapT, deltaT      timings
		snapKB, deltaKB             []float64
	)
	for s := 0; s < cfg.simSessions; s++ {
		d, err := refDemands(cfg.seed + int64(s))
		if err != nil {
			return err
		}
		eng, err := sim.New(sc)
		if err != nil {
			return err
		}
		trace := fmt.Sprintf("sim.s%d", s)
		tr.reserve(refTicks)
		var base []byte
		for _, x := range d {
			t0 := time.Now()
			dec, err := eng.Step(x)
			t1 := time.Now()
			tr.rec(0, parent, trace, "sim.Engine.Step", t0, t1)
			if err != nil {
				return err
			}
			el := t1.Sub(t0)
			all.add(el)
			// Regimes: idle (demand within capacity), sprinting (phase 1–3:
			// breaker, UPS, TES), and the fallback once the budget is spent.
			switch {
			case x <= 1:
				idle.add(el)
			case dec.Phase >= 1:
				sprint.add(el)
			default:
				fallback.add(el)
			}
			switch eng.Tick() {
			case refTicks / 2:
				for r := 0; r < cfg.reps; r++ {
					t0 := time.Now()
					snap, err := eng.Snapshot()
					t1 := time.Now()
					tr.rec(0, parent, trace, "sim.Engine.Snapshot", t0, t1)
					if err != nil {
						return err
					}
					snapT.add(t1.Sub(t0))
					base = snap
				}
				snapKB = append(snapKB, float64(len(base))/1024)
			case refTicks/2 + 256:
				for r := 0; r < cfg.reps; r++ {
					t0 := time.Now()
					delta, err := eng.DeltaSnapshot(base)
					t1 := time.Now()
					tr.rec(0, parent, trace, "sim.Engine.DeltaSnapshot", t0, t1)
					if err != nil {
						return err
					}
					deltaT.add(t1.Sub(t0))
					if r == 0 {
						deltaKB = append(deltaKB, float64(len(delta))/1024)
					}
				}
			}
		}
		t0 := time.Now()
		_, err = eng.Finish()
		t1 := time.Now()
		tr.rec(0, parent, trace, "sim.Engine.Finish", t0, t1)
		if err != nil {
			return err
		}
		fin1800.add(t1.Sub(t0))
	}
	l.simStep = all.us(0.5)
	l.rec.add("sim.step_ns", all.ns(0.5), "ns")
	l.rec.add("sim.step_ns.p99", all.ns(0.99), "ns")
	l.rec.add("sim.step_ns.idle", idle.ns(0.5), "ns")
	l.rec.add("sim.step_ns.sprint", sprint.ns(0.5), "ns")
	l.rec.add("sim.step_ns.fallback", fallback.ns(0.5), "ns")
	l.rec.add("sim.ticks.idle", float64(len(idle)), "count")
	l.rec.add("sim.ticks.sprint", float64(len(sprint)), "count")
	l.rec.add("sim.ticks.fallback", float64(len(fallback)), "count")

	// Allocations, counted on an untimed pass so the clock and span log
	// stay out of the count.
	d, err := refDemands(cfg.seed)
	if err != nil {
		return err
	}
	eng, err := sim.New(sc)
	if err != nil {
		return err
	}
	allocs, err := allocsPer(refTicks, func() error {
		for _, x := range d {
			if _, err := eng.Step(x); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.rec.add("sim.step_allocs", allocs, "count")

	if err := l.batch(sc, parent); err != nil {
		return err
	}

	var newT, fin12 timings
	for r := 0; r < 5*cfg.reps; r++ {
		trace := fmt.Sprintf("sim.new%d", r)
		t0 := time.Now()
		eng, err := sim.New(sc)
		t1 := time.Now()
		tr.rec(0, parent, trace, "sim.New", t0, t1)
		if err != nil {
			return err
		}
		newT.add(t1.Sub(t0))
		for _, x := range d[:churnTicks] {
			if _, err := eng.Step(x); err != nil {
				return err
			}
		}
		t0 = time.Now()
		_, err = eng.Finish()
		t1 = time.Now()
		tr.rec(0, parent, trace, "sim.Engine.Finish", t0, t1)
		if err != nil {
			return err
		}
		fin12.add(t1.Sub(t0))
	}
	n := 10 * cfg.reps
	kb, err := heapDelta(n, func() (any, error) {
		engs := make([]*sim.Engine, n)
		for i := range engs {
			var err error
			if engs[i], err = sim.New(sc); err != nil {
				return nil, err
			}
		}
		return engs, nil
	})
	if err != nil {
		return err
	}
	l.rec.add("sim.new_us", newT.us(0.5), "us")
	l.rec.add("sim.finish_us.t12", fin12.us(0.5), "us")
	l.rec.add("sim.finish_us.t1800", fin1800.us(0.5), "us")
	l.rec.add("sim.session_kb", kb, "KiB")
	l.rec.add("sim.snapshot_us", snapT.us(0.5), "us")
	l.rec.add("sim.snapshot_kb", median(snapKB), "KiB")
	l.rec.add("sim.delta_us", deltaT.us(0.5), "us")
	l.rec.add("sim.delta_kb", median(deltaKB), "KiB")

	var runT timings
	items, err := campaignItems(cfg.seed, 0, cfg.simSessions)
	if err != nil {
		return err
	}
	for _, it := range items {
		t0 := time.Now()
		_, err := sim.Run(sim.Scenario{Trace: it.tr})
		t1 := time.Now()
		tr.rec(0, parent, fmt.Sprintf("sim.run%d", it.idx), "sim.Run", t0, t1)
		if err != nil {
			return err
		}
		runT.add(t1.Sub(t0))
	}
	l.rec.add("sim.run_ms", runT.ns(0.5)/1e6, "ms")
	return ctx.Err()
}

// batch times Batch.StepAll sweeping batchSessions reference sessions
// through the whole duty cycle.
func (l *ladder) batch(sc sim.Scenario, parent uint64) error {
	n := l.cfg.batchSessions
	b := sim.NewBatch(sim.BatchOptions{Capacity: n})
	ds := make([][]float64, n)
	for i := range ds {
		var err error
		if ds[i], err = refDemands(l.cfg.seed + int64(i)); err != nil {
			return err
		}
		eng, err := sim.New(sc)
		if err != nil {
			return err
		}
		b.AddEngine(eng)
	}
	samples := make([]sim.Sample, n)
	var sweeps timings
	sweeps = make(timings, 0, refTicks)
	l.tr.reserve(refTicks)
	allocs, err := allocsPer(refTicks, func() error {
		for t := 0; t < refTicks; t++ {
			for i := range samples {
				samples[i].Demand = ds[i][t]
			}
			t0 := time.Now()
			_, err := b.StepAll(samples)
			t1 := time.Now()
			l.tr.rec(0, parent, "sim.batch", "sim.Batch.StepAll", t0, t1)
			if err != nil {
				return err
			}
			sweeps.add(t1.Sub(t0))
		}
		return nil
	})
	if err != nil {
		return err
	}
	perStep := sweeps.ns(0.5) / float64(n)
	l.batchStep = perStep / 1e3
	l.rec.add("sim.batch_step_ns", perStep, "ns")
	l.rec.add("sim.batch_allocs_per_sweep", allocs, "count")
	return nil
}

// managerLoad steps reference sessions through Manager.Step from the load's
// client count of goroutines for window (after a fifth of it unrecorded)
// and returns the step timings.
func (l *ladder) managerLoad(ctx context.Context, mgr *service.Manager, window time.Duration, parent uint64) (timings, error) {
	warm := time.Now().Add(window / 5)
	end := warm.Add(window)
	var next atomic.Int64
	per := make([]timings, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) && ctx.Err() == nil && errs[c] == nil {
				errs[c] = l.managerSession(mgr, next.Add(1)-1, warm, end, &per[c], parent)
			}
		}()
	}
	wg.Wait()
	var all timings
	for c := range per {
		if errs[c] != nil {
			return nil, errs[c]
		}
		all = append(all, per[c]...)
	}
	return all, ctx.Err()
}

func (l *ladder) managerSession(mgr *service.Manager, idx int64, warm, end time.Time, out *timings, parent uint64) error {
	d, err := refDemands(l.cfg.seed + idx)
	if err != nil {
		return err
	}
	s, err := mgr.Create(refSpec())
	if err != nil {
		return err
	}
	trace := fmt.Sprintf("service.s%d", idx)
	for _, x := range d {
		t0 := time.Now()
		_, err := mgr.Step(s.ID, x)
		t1 := time.Now()
		l.tr.rec(0, parent, trace, "service.Manager.Step", t0, t1)
		if err != nil {
			return err
		}
		if !t0.Before(warm) {
			out.add(t1.Sub(t0))
		}
		if !t1.Before(end) {
			break
		}
	}
	_, err = mgr.Finish(s.ID)
	return err
}

// service is the in-process Manager rung, with each workload's config.
func (l *ladder) service(ctx context.Context, parent uint64) error {
	cfg, tr := l.cfg, l.tr
	st, err := newStack(daemonOpts{}, nil)
	if err != nil {
		return err
	}
	defer st.mgr.Close()
	steps, err := l.managerLoad(ctx, st.mgr, cfg.rung, parent)
	if err != nil {
		return err
	}
	l.serviceStep = steps.us(0.5)
	l.rec.add("service.step_us.p50", steps.us(0.5), "us")
	l.rec.add("service.step_us.p99", steps.us(0.99), "us")

	// The manager's own spans: queue wait per request, and per step the
	// time from its quantum's start to its reply — steps sharing a start are
	// one lockstep quantum.
	ops := telemetry.NewOpLog(0)
	spanned, err := newStack(daemonOpts{}, ops)
	if err != nil {
		return err
	}
	_, err = l.managerLoad(ctx, spanned.mgr, cfg.rung/2, parent)
	spanned.mgr.Close()
	if err != nil {
		return err
	}
	var wait, quantum timings
	sizes := map[int64]int{}
	longest := map[int64]int64{}
	for _, s := range ops.Spans() {
		switch s.Name {
		case "queue-wait":
			wait.add(time.Duration(s.DurUs) * time.Microsecond)
		case "step":
			sizes[s.StartUs]++
			longest[s.StartUs] = max(longest[s.StartUs], s.DurUs)
		}
	}
	for _, us := range longest {
		quantum.add(time.Duration(us) * time.Microsecond)
	}
	var inQuanta int
	for _, n := range sizes {
		inQuanta += n
	}
	l.rec.add("service.queue_wait_us.p50", wait.us(0.5), "us")
	l.rec.add("service.queue_wait_us.p99", wait.us(0.99), "us")
	l.rec.add("service.quantum_us.p50", quantum.us(0.5), "us")
	l.rec.add("service.quantum_size.mean", float64(inQuanta)/float64(len(sizes)), "count")

	// Session lifetime calls, at churn's 12 ticks.
	d, err := refDemands(cfg.seed)
	if err != nil {
		return err
	}
	var createT, finishT timings
	for r := 0; r < 5*cfg.reps; r++ {
		trace := fmt.Sprintf("service.life%d", r)
		t0 := time.Now()
		s, err := st.mgr.Create(refSpec())
		t1 := time.Now()
		tr.rec(0, parent, trace, "service.Manager.Create", t0, t1)
		if err != nil {
			return err
		}
		createT.add(t1.Sub(t0))
		for _, x := range d[:churnTicks] {
			if _, err := st.mgr.Step(s.ID, x); err != nil {
				return err
			}
		}
		t0 = time.Now()
		_, err = st.mgr.Finish(s.ID)
		t1 = time.Now()
		tr.rec(0, parent, trace, "service.Manager.Finish", t0, t1)
		if err != nil {
			return err
		}
		finishT.add(t1.Sub(t0))
	}
	l.rec.add("service.create_us.p50", createT.us(0.5), "us")
	l.rec.add("service.finish_us.p50", finishT.us(0.5), "us")

	if err := l.serviceHold(parent); err != nil {
		return err
	}
	return l.serviceSnapshots(d, parent)
}

// serviceHold measures bytes per live session and the probe read at the
// hold size, under churn's config.
func (l *ladder) serviceHold(parent uint64) error {
	st, err := newStack(daemonOptsFor(kindChurn, ""), nil)
	if err != nil {
		return err
	}
	defer st.mgr.Close()
	n := l.cfg.hold
	ids := make([]string, 0, n)
	kb, err := heapDelta(n, func() (any, error) {
		for i := 0; i < n; i++ {
			d, err := refDemands(l.cfg.seed + int64(i))
			if err != nil {
				return nil, err
			}
			s, err := st.mgr.Create(refSpec())
			if err != nil {
				return nil, err
			}
			ids = append(ids, s.ID)
			if _, err := st.mgr.Step(s.ID, d[0]); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		return err
	}
	l.rec.add("service.heap_per_session_kb", kb, "KiB")
	var probeT timings
	for r := 0; r < l.cfg.reps; r++ {
		t0 := time.Now()
		probes := st.mgr.Probes()
		t1 := time.Now()
		l.tr.rec(0, parent, "service.hold", "service.Manager.Probes", t0, t1)
		if len(probes) != n {
			return fmt.Errorf("Probes returned %d sessions, want %d", len(probes), n)
		}
		probeT.add(t1.Sub(t0))
	}
	l.rec.add("service.probes_us", probeT.us(0.5), "us")
	for _, id := range ids {
		if _, err := st.mgr.Finish(id); err != nil {
			return err
		}
	}
	return nil
}

// serviceSnapshots times Manager.Snapshot at tick 900 and Manager.Restore
// of that snapshot, under durable's config.
func (l *ladder) serviceSnapshots(d []float64, parent uint64) error {
	dir, cleanup, err := stateDir(l.cfg)
	if err != nil {
		return err
	}
	defer cleanup()
	st, err := newStack(daemonOptsFor(kindDurable, dir), nil)
	if err != nil {
		return err
	}
	defer st.mgr.Close()
	s, err := st.mgr.Create(refSpec())
	if err != nil {
		return err
	}
	for _, x := range d[:refTicks/2] {
		if _, err := st.mgr.Step(s.ID, x); err != nil {
			return err
		}
	}
	var snapT, restoreT timings
	var doc service.SnapshotDoc
	for r := 0; r < l.cfg.reps; r++ {
		t0 := time.Now()
		doc, err = st.mgr.Snapshot(s.ID)
		t1 := time.Now()
		l.tr.rec(0, parent, "service.snapshot", "service.Manager.Snapshot", t0, t1)
		if err != nil {
			return err
		}
		snapT.add(t1.Sub(t0))
	}
	for r := 0; r < l.cfg.reps; r++ {
		t0 := time.Now()
		restored, err := st.mgr.Restore(doc)
		t1 := time.Now()
		l.tr.rec(0, parent, "service.snapshot", "service.Manager.Restore", t0, t1)
		if err != nil {
			return err
		}
		restoreT.add(t1.Sub(t0))
		if _, err := st.mgr.Finish(restored.ID); err != nil {
			return err
		}
	}
	if _, err := st.mgr.Finish(s.ID); err != nil {
		return err
	}
	l.rec.add("service.snapshot_us.p50", snapT.us(0.5), "us")
	l.rec.add("service.restore_us.p50", restoreT.us(0.5), "us")
	return nil
}

// wire is the NDJSON rung: the stream load against the stack over httptest
// loopback, once with spans off (the reported numbers) and once with them
// on (the trace overhead), then churn's create and finish calls.
func (l *ladder) wire(ctx context.Context, parent uint64) error {
	st, err := newStack(daemonOpts{}, nil)
	if err != nil {
		return err
	}
	defer st.mgr.Close()
	srv := httptest.NewServer(st.handler)
	defer srv.Close()
	ls := loadSpec{kind: kindStream, base: srv.URL, seed: l.cfg.seed, warmup: l.cfg.rung / 5, window: l.cfg.rung, tr: l.tr}
	l.tr.off.Store(true)
	off, err := drive(ctx, ls)
	l.tr.off.Store(false)
	if err != nil {
		return err
	}
	on, err := drive(ctx, ls)
	if err != nil {
		return err
	}
	ls.kind = kindChurn
	churn, err := drive(ctx, ls)
	if err != nil {
		return err
	}
	for _, o := range []*loadOut{off, on, churn} {
		l.rec.absorb(o)
	}
	l.wireStep = off.step.us(0.5)
	l.rec.add("service.wire_step_us.p50", off.step.us(0.5), "us")
	l.rec.add("service.wire_step_us.p99", off.step.us(0.99), "us")
	l.rec.add("service.wire_bytes_per_step", float64(off.stepBytes)/float64(off.byteSteps), "B")
	l.rec.add("service.wire_create_us.p50", churn.create.us(0.5), "us")
	l.rec.add("service.wire_finish_us.p50", churn.finish.us(0.5), "us")
	l.rec.add("bench.trace_overhead_frac", on.step.us(0.5)/off.step.us(0.5)-1, "ratio")
	return nil
}

// durability replays the durable load's journal traffic through the
// Journal API: a checkpoint at create, one record per tick, and every 256
// ticks a delta checkpoint against the previous one (the service's default
// chain of 16 is never exhausted within 1800 ticks).
func (l *ladder) durability(ctx context.Context, parent uint64) error {
	dir, cleanup, err := stateDir(l.cfg)
	if err != nil {
		return err
	}
	defer cleanup()
	spec, err := json.Marshal(refSpec())
	if err != nil {
		return err
	}
	var appendT, deltaT, fullT timings
	var ckptBytes, dirKB []float64
	for s := 0; s < l.cfg.simSessions; s++ {
		d, err := refDemands(l.cfg.seed + int64(s))
		if err != nil {
			return err
		}
		eng, err := refEngine()
		if err != nil {
			return err
		}
		trace := fmt.Sprintf("durability.s%d", s)
		j, err := durability.Open(dir, fmt.Sprintf("bench-%d", s))
		if err != nil {
			return err
		}
		base, err := eng.Snapshot()
		if err != nil {
			return err
		}
		for r := 0; r < l.cfg.reps; r++ {
			t0 := time.Now()
			err := j.WriteSnapshot(spec, base, 0)
			t1 := time.Now()
			l.tr.rec(0, parent, trace, "durability.Journal.WriteSnapshot", t0, t1)
			if err != nil {
				return err
			}
			fullT.add(t1.Sub(t0))
		}
		l.tr.reserve(refTicks)
		for t, x := range d {
			if _, err := eng.Step(x); err != nil {
				return err
			}
			t0 := time.Now()
			err := j.Append(uint64(t), x)
			t1 := time.Now()
			l.tr.rec(0, parent, trace, "durability.Journal.Append", t0, t1)
			if err != nil {
				return err
			}
			appendT.add(t1.Sub(t0))
			if eng.Tick()%256 == 0 {
				delta, err := eng.DeltaSnapshot(base)
				if err != nil {
					return err
				}
				t0 := time.Now()
				err = j.AppendDelta(delta)
				t1 := time.Now()
				l.tr.rec(0, parent, trace, "durability.Journal.AppendDelta", t0, t1)
				if err != nil {
					return err
				}
				deltaT.add(t1.Sub(t0))
				ckptBytes = append(ckptBytes, float64(len(delta)+8)) // + length prefix and CRC
				if base, err = eng.Snapshot(); err != nil {
					return err
				}
			}
			if eng.Tick() == refTicks/2 {
				kb, err := dirSizeKB(dir)
				if err != nil {
					return err
				}
				dirKB = append(dirKB, kb)
			}
		}
		if err := j.Remove(); err != nil {
			return err
		}
	}
	l.rec.add("durability.append_ns", appendT.ns(0.5), "ns")
	l.rec.add("durability.append_delta_us", deltaT.us(0.5), "us")
	l.rec.add("durability.write_snapshot_us", fullT.us(0.5), "us")
	l.rec.add("durability.bytes_per_checkpoint", median(ckptBytes), "B")
	l.rec.add("durability.dir_kb_per_session", median(dirKB), "KiB")
	return ctx.Err()
}

func dirSizeKB(dir string) (float64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return float64(n) / 1024, err
}

// sampleLog keeps an engine's plant samples for replay into the store.
type sampleLog []sim.PlantSample

func (s *sampleLog) RecordPlant(p sim.PlantSample) { *s = append(*s, p) }

// tsdb replays the reference sessions' plant samples into a PlantSink sized
// like dcsprintd's, and times the fleet fold at 2 and at hold sessions.
func (l *ladder) tsdb(ctx context.Context, parent uint64) error {
	newSink := func() *tsdb.PlantSink { return tsdb.NewPlantSink(tsdb.New(tsdb.Sized(64<<20)), tsdb.SinkOptions{}) }
	sink := newSink()
	var recT timings
	var last sim.PlantSample
	for s := 0; s < l.cfg.simSessions; s++ {
		d, err := refDemands(l.cfg.seed + int64(s))
		if err != nil {
			return err
		}
		eng, err := refEngine()
		if err != nil {
			return err
		}
		var log sampleLog
		eng.AttachPlantRecorder(&log)
		for _, x := range d {
			if _, err := eng.Step(x); err != nil {
				return err
			}
		}
		trace := fmt.Sprintf("tsdb.s%d", s)
		r := sink.Session(trace)
		l.tr.reserve(len(log))
		for _, p := range log {
			t0 := time.Now()
			r.RecordPlant(p)
			t1 := time.Now()
			l.tr.rec(0, parent, trace, "tsdb.SessionRecorder.RecordPlant", t0, t1)
			recT.add(t1.Sub(t0))
		}
		last = log[len(log)-1]
	}
	l.rec.add("tsdb.record_ns", recT.ns(0.5), "ns")
	for _, n := range []int{2, l.cfg.hold} {
		fleet := newSink()
		for i := 0; i < n; i++ {
			fleet.Session(fmt.Sprintf("s%d", i)).RecordPlant(last)
		}
		var foldT timings
		for r := 0; r < l.cfg.reps; r++ {
			t0 := time.Now()
			fleet.SampleFleet(nil)
			t1 := time.Now()
			l.tr.rec(0, parent, fmt.Sprintf("tsdb.fleet%d", n), "tsdb.PlantSink.SampleFleet", t0, t1)
			foldT.add(t1.Sub(t0))
		}
		name := "tsdb.sample_fleet_us.s2"
		if n != 2 {
			name = "tsdb.sample_fleet_us.s2000"
		}
		l.rec.add(name, foldT.us(0.5), "us")
	}
	return ctx.Err()
}

// sweepWorkers is the worker count whose speed-up over one worker the
// campaign rung reports: one per core of the two-core machines the
// benchmark was built on.
const sweepWorkers = 2

// campaign sweeps campaignSeeds seeds with one worker and with sweepWorkers,
// alternating three times so drift in the machine's speed hits both sides,
// for the sweep's throughput and its parallel efficiency.
func (l *ladder) campaign(ctx context.Context, parent uint64) error {
	items, err := campaignItems(l.cfg.seed, 0, l.cfg.campaignSeeds)
	if err != nil {
		return err
	}
	perSec := map[int][]float64{}
	for round := 0; round < 3; round++ {
		for _, w := range []int{1, sweepWorkers} {
			t0 := time.Now()
			runs, _, err := runSeeds(ctx, items, w, l.tr, parent)
			t1 := time.Now()
			l.tr.rec(0, parent, fmt.Sprintf("campaign.w%d", w), "campaign.Sweep", t0, t1)
			if err != nil {
				return err
			}
			l.rec.Attempted += int64(len(runs))
			for i, r := range runs {
				if !r.healthy {
					l.rec.fail(fmt.Errorf("campaign seed item %d tripped or died", i))
				}
			}
			perSec[w] = append(perSec[w], float64(len(items))/t1.Sub(t0).Seconds())
		}
	}
	one, many := median(perSec[1]), median(perSec[sweepWorkers])
	l.rec.add("campaign.items_per_s", many, "1/s")
	l.rec.add("campaign.parallel_efficiency", many/(sweepWorkers*one), "ratio")
	return nil
}

// dcsprintd is the top rung: the daemon seen from outside, under short
// stream, durable and churn loads, with its CPU, memory, GC and control-plane
// counters read around the stream window.
func (l *ladder) dcsprintd(ctx context.Context, parent uint64) error {
	cfg := l.cfg
	load := func(kind loadKind, d *daemon) loadSpec {
		return loadSpec{kind: kind, base: d.base, seed: cfg.seed, warmup: cfg.rung / 5, window: cfg.rung, tr: l.tr}
	}
	err := withDaemon(ctx, cfg.daemon, daemonOpts{}, func(d *daemon) error {
		var (
			cpu, self [2]time.Duration
			counters  [2]map[string]float64
			readErr   error
		)
		ls := load(kindStream, d)
		ls.onWindow = func(closed bool) {
			i := 0
			if closed {
				i = 1
			}
			var err error
			if cpu[i], err = procCPU(d.pid); err != nil && readErr == nil {
				readErr = err
			}
			self[i] = selfCPU()
			if counters[i], err = scrape(ctx, d.base); err != nil && readErr == nil {
				readErr = err
			}
		}
		out, err := drive(ctx, ls)
		if err != nil {
			return err
		}
		if readErr != nil {
			return readErr
		}
		rss, err := procHWM(d.pid)
		if err != nil {
			return err
		}
		l.rec.absorb(out)
		delta := func(name string) float64 { return counters[1][name] - counters[0][name] }
		steps := delta("dcsprint_service_steps_total")
		if steps <= 0 {
			return fmt.Errorf("daemon served no steps in the window")
		}
		l.daemonStep = out.step.us(0.5)
		l.rec.add("dcsprintd.step_us.p50", out.step.us(0.5), "us")
		l.rec.add("dcsprintd.cpu_us_per_step", float64(cpu[1]-cpu[0])/1e3/steps, "us")
		l.rec.add("dcsprintd.gc_per_kstep", delta("dcsprint_runtime_gc_cycles_total")/steps*1e3, "count")
		l.rec.add("dcsprintd.gc_pause_us_per_kstep", delta("dcsprint_runtime_gc_pause_seconds_total")*1e6/steps*1e3, "us")
		l.rec.add("dcsprintd.rss_mb", rss, "MiB")
		l.rec.add("dcsprintd.backpressure", delta("dcsprint_service_backpressure_total"), "count")
		l.rec.add("dcsprintd.slow_steps", delta("dcsprint_service_slow_steps_total"), "count")
		l.rec.add("loadgen.cpu_us_per_step", float64(self[1]-self[0])/1e3/steps, "us")
		return nil
	})
	if err != nil {
		return err
	}

	dir, cleanup, err := stateDir(cfg)
	if err != nil {
		return err
	}
	defer cleanup()
	err = withDaemon(ctx, cfg.daemon, daemonOptsFor(kindDurable, dir), func(d *daemon) error {
		out, err := drive(ctx, load(kindDurable, d))
		if err != nil {
			return err
		}
		l.rec.absorb(out)
		l.rec.add("dcsprintd.snapshot_us.p50", out.snapshot.us(0.5), "us")
		l.rec.add("dcsprintd.snapshot_kb", median(out.snapKB), "KiB")
		return nil
	})
	if err != nil {
		return err
	}

	return withDaemon(ctx, cfg.daemon, daemonOptsFor(kindChurn, ""), func(d *daemon) error {
		out, err := drive(ctx, load(kindChurn, d))
		if err != nil {
			return err
		}
		l.rec.absorb(out)
		kb, held, err := hold(ctx, d.base, cfg.seed, cfg.hold, l.tr)
		if err != nil {
			return err
		}
		l.rec.absorb(held)
		l.rec.add("dcsprintd.create_us.p50", out.create.us(0.5), "us")
		l.rec.add("dcsprintd.finish_us.p50", out.finish.us(0.5), "us")
		l.rec.add("dcsprintd.heap_per_session_kb", kb, "KiB")
		return nil
	})
}
