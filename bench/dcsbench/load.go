package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dcsprint/internal/service"
	"dcsprint/internal/telemetry"
)

// clients is the load generator's concurrency: one goroutine with its own
// http.Client limited to one connection. The loop is closed — each session
// is lockstep, a DC controller waiting for a tick's decision before it sends
// the next — so an op's latency is the path's own cost. One client leaves
// the daemon and the load generator a core each of a two-core machine: with
// two, the pair contends for both cores, and in alternating runs on such a
// machine the run-to-run spread of stream's throughput doubled (0.055 to
// 0.125 of its median) and churn's grew from 0.08 to 0.15.
const clients = 1

// churnTicks is how many ticks a churn session lives before it finishes.
const churnTicks = 12

// loadKind is the shape of the sessions a load drives.
type loadKind int

const (
	// kindStream runs whole reference sessions back to back.
	kindStream loadKind = iota
	// kindDurable is kindStream plus, at tick 900, a snapshot, a finish, a
	// restore from the snapshot and a resumed stream.
	kindDurable
	// kindChurn runs create → churnTicks steps → finish.
	kindChurn
)

// loadSpec is one closed-loop load: warm-up, then a timed window. Sessions
// end at the window's close (stream and durable finish early, at whatever
// tick they reached; churn sessions run their few ticks out).
type loadSpec struct {
	kind           loadKind
	base           string
	seed           int64
	warmup, window time.Duration
	tr             *tracer
	// onWindow, when set, is called as the window opens (false) and
	// closes (true), for readings that bracket it.
	onWindow func(closed bool)
}

// finished is one session's result, kept for verification after the load.
type finished struct {
	idx   int64
	ticks int
	view  service.ResultView
}

// loadOut is what a load measured. Timings and counts cover operations that
// completed inside the window; attempted and failed cover the whole load.
type loadOut struct {
	step, create, finish, snapshot, life timings
	snapKB                               []float64
	stepBytes, byteSteps                 int64
	attempted, failed                    int64
	digest                               string
	errs                                 []error
}

func (o *loadOut) fail(err error) {
	o.failed++
	if len(o.errs) < 3 {
		o.errs = append(o.errs, err)
	}
}

// countingConn counts the bytes crossing one client's connections.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// client is one load goroutine's state.
type client struct {
	id    int
	c     *service.Client
	tr    *http.Transport
	bytes atomic.Int64
	out   loadOut
	done  []finished
}

func newClient(id int, base string) *client {
	cl := &client{id: id}
	var d net.Dialer
	cl.tr = &http.Transport{
		MaxConnsPerHost: 1,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return countingConn{Conn: c, n: &cl.bytes}, nil
		},
	}
	// One attempt per operation: a 429 is a failed operation here, not a
	// retry the measurement hides.
	cl.c = &service.Client{Base: base, HTTP: &http.Client{Transport: cl.tr},
		Registry: telemetry.NewRegistry(), Retry: service.RetryPolicy{MaxAttempts: 1}}
	return cl
}

// drive runs one closed-loop load and verifies every finished session.
func drive(ctx context.Context, ls loadSpec) (*loadOut, error) {
	var next atomic.Int64
	start := time.Now()
	win0 := start.Add(ls.warmup)
	win1 := win0.Add(ls.window)
	cls := make([]*client, clients)
	var wg sync.WaitGroup
	for i := range cls {
		cl := newClient(i, ls.base)
		cls[i] = cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cl.tr.CloseIdleConnections()
			for time.Now().Before(win1) && ctx.Err() == nil {
				cl.session(ctx, &ls, next.Add(1)-1, win0, win1)
			}
		}()
	}
	if ls.onWindow != nil {
		sleepUntil(ctx, win0)
		ls.onWindow(false)
		sleepUntil(ctx, win1)
		ls.onWindow(true)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	out := &loadOut{}
	var done []finished
	for _, cl := range cls {
		o := &cl.out
		out.step = append(out.step, o.step...)
		out.create = append(out.create, o.create...)
		out.finish = append(out.finish, o.finish...)
		out.snapshot = append(out.snapshot, o.snapshot...)
		out.life = append(out.life, o.life...)
		out.snapKB = append(out.snapKB, o.snapKB...)
		out.stepBytes += o.stepBytes
		out.byteSteps += o.byteSteps
		out.attempted += o.attempted
		out.failed += o.failed
		out.errs = append(out.errs, o.errs...)
		done = append(done, cl.done...)
	}
	full := refTicks
	if ls.kind == kindChurn {
		full = churnTicks
	}
	out.verify(ls.seed, done, full)
	return out, nil
}

func sleepUntil(ctx context.Context, t time.Time) {
	select {
	case <-ctx.Done():
	case <-time.After(time.Until(t)):
	}
}

// session drives one session from create to finish.
func (cl *client) session(ctx context.Context, ls *loadSpec, idx int64, win0, win1 time.Time) {
	o := &cl.out
	in := func(t time.Time) bool { return !t.Before(win0) && t.Before(win1) }
	demands, err := refDemands(ls.seed + idx)
	if err != nil {
		o.fail(err)
		return
	}
	ticks := len(demands)
	if ls.kind == kindChurn {
		ticks = churnTicks
		o.attempted++
	}
	trace := fmt.Sprintf("load.c%d.s%d", cl.id, idx)
	sid := ls.tr.id()

	t0 := time.Now()
	s, err := cl.c.Create(ctx, refSpec())
	t1 := time.Now()
	ls.tr.rec(0, sid, trace, "service.Client.Create", t0, t1)
	if err != nil {
		o.fail(fmt.Errorf("create: %w", err))
		return
	}
	if in(t1) {
		o.create.add(t1.Sub(t0))
	}
	id := s.ID
	st, err := cl.c.Stream(ctx, id)
	if err != nil {
		o.fail(fmt.Errorf("stream: %w", err))
		cl.abandon(ctx, id)
		return
	}
	n := 0
	for n < ticks {
		if ls.kind == kindDurable && n == ticks/2 {
			if st, id, err = cl.restart(ctx, ls, st, id, n, in, sid, trace); err != nil {
				o.fail(fmt.Errorf("snapshot/restore at tick %d: %w", n, err))
				cl.abandon(ctx, id)
				return
			}
		}
		b0 := cl.bytes.Load()
		t0 := time.Now()
		dec, err := st.StepContext(ctx, demands[n])
		t1 := time.Now()
		o.stepBytes += cl.bytes.Load() - b0
		ls.tr.rec(0, sid, trace, "service.Stream.StepContext", t0, t1)
		if ls.kind != kindChurn {
			o.attempted++
		}
		if err == nil && dec.Tick != n {
			err = fmt.Errorf("decision for tick %d", dec.Tick)
		}
		if err != nil {
			o.fail(fmt.Errorf("step %d: %w", n, err))
			st.Close() //nolint:errcheck // the session is abandoned either way
			cl.abandon(ctx, id)
			return
		}
		n++
		o.byteSteps++
		if in(t1) {
			o.step.add(t1.Sub(t0))
		}
		if ls.kind != kindChurn && !t1.Before(win1) {
			break
		}
	}
	if err := st.Close(); err != nil {
		o.fail(fmt.Errorf("closing stream: %w", err))
		cl.abandon(ctx, id)
		return
	}
	t2 := time.Now()
	view, err := cl.c.Finish(ctx, id)
	t3 := time.Now()
	ls.tr.rec(0, sid, trace, "service.Client.Finish", t2, t3)
	if err != nil {
		o.fail(fmt.Errorf("finish: %w", err))
		return
	}
	if in(t3) {
		o.finish.add(t3.Sub(t2))
		if ls.kind == kindChurn {
			o.life.add(t3.Sub(t0))
		}
	}
	ls.tr.rec(sid, 0, trace, "load.session", t0, t3)
	cl.done = append(cl.done, finished{idx: idx, ticks: n, view: view})
}

// restart checkpoints a session mid-run the way an operator moves one: close
// the stream, snapshot, finish the original, restore the snapshot as a new
// session and resume streaming it at the same tick.
func (cl *client) restart(ctx context.Context, ls *loadSpec, st *service.Stream, id string, tick int,
	in func(time.Time) bool, sid uint64, trace string) (*service.Stream, string, error) {
	o := &cl.out
	if err := st.Close(); err != nil {
		return nil, id, err
	}
	t0 := time.Now()
	doc, err := cl.c.Snapshot(ctx, id)
	t1 := time.Now()
	ls.tr.rec(0, sid, trace, "service.Client.Snapshot", t0, t1)
	if err != nil {
		return nil, id, err
	}
	if in(t1) {
		o.snapshot.add(t1.Sub(t0))
		o.snapKB = append(o.snapKB, float64(len(doc.Snapshot))/1024)
	}
	if _, err := cl.c.Finish(ctx, id); err != nil {
		return nil, id, err
	}
	t2 := time.Now()
	s, err := cl.c.Restore(ctx, doc)
	ls.tr.rec(0, sid, trace, "service.Client.Restore", t2, time.Now())
	if err != nil {
		return nil, "", err
	}
	st, err = cl.c.Stream(ctx, s.ID)
	if err != nil {
		return nil, s.ID, err
	}
	if st.Tick() != int64(tick) {
		st.Close() //nolint:errcheck
		return nil, s.ID, fmt.Errorf("restored session resumes at tick %d", st.Tick())
	}
	return st, s.ID, nil
}

// abandon finishes a failed session so it does not hold a daemon slot.
func (cl *client) abandon(ctx context.Context, id string) {
	if id != "" {
		cl.c.Finish(ctx, id) //nolint:errcheck // best effort; the failure is already counted
	}
}

// verify re-simulates every finished session locally and requires the
// daemon's result to be DeepEqual; it also folds the first digestSessions
// sessions, in seed order, into the results digest.
func (o *loadOut) verify(seed int64, done []finished, full int) {
	sort.Slice(done, func(i, j int) bool { return done[i].idx < done[j].idx })
	errs := make([]error, len(done))
	parallel(len(done), func(i int) {
		f := done[i]
		d, err := refDemands(seed + f.idx)
		if err == nil {
			var want service.ResultView
			if want, err = resim(d[:f.ticks]); err == nil && !reflect.DeepEqual(f.view, want) {
				err = fmt.Errorf("session %d: daemon result differs from local re-simulation", f.idx)
			}
		}
		errs[i] = err
	})
	var hashes [][32]byte
	for i, f := range done {
		if errs[i] != nil {
			o.fail(errs[i])
			continue
		}
		if int64(len(hashes)) == f.idx && len(hashes) < digestSessions && f.ticks == full {
			h, err := resultHash(f.view)
			if err != nil {
				o.fail(err)
				continue
			}
			hashes = append(hashes, h)
		}
	}
	o.digest = "incomplete"
	if len(hashes) == digestSessions {
		o.digest = digest(hashes)
	}
}

// parallel runs fn(0..n-1) on GOMAXPROCS goroutines.
func parallel(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// hold opens n sessions, steps each once, and returns the daemon's live
// heap growth per open session in KiB — the bytes a live session costs —
// then finishes them all and verifies their results.
func hold(ctx context.Context, base string, seed int64, n int, tr *tracer) (float64, *loadOut, error) {
	heap0, err := gcHeap(ctx, base)
	if err != nil {
		return 0, nil, err
	}
	out := &loadOut{}
	ids := make([]string, n)
	views := make([]service.ResultView, n)
	errs := make([]error, n)
	phase := func(fn func(cl *client, i int) error) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			cl := newClient(c, base)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer cl.tr.CloseIdleConnections()
				for i := int(next.Add(1) - 1); i < n && ctx.Err() == nil; i = int(next.Add(1) - 1) {
					if errs[i] == nil {
						errs[i] = fn(cl, i)
					}
				}
			}()
		}
		wg.Wait()
	}
	demands := make([]float64, n)
	for i := range demands {
		d, err := refDemands(seed + int64(i))
		if err != nil {
			return 0, nil, err
		}
		demands[i] = d[0]
	}
	phase(func(cl *client, i int) error {
		t0 := time.Now()
		s, err := cl.c.Create(ctx, refSpec())
		if err != nil {
			return err
		}
		ids[i] = s.ID
		st, err := cl.c.Stream(ctx, s.ID)
		if err != nil {
			return err
		}
		_, err = st.StepContext(ctx, demands[i])
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		tr.rec(0, 0, fmt.Sprintf("hold.s%d", i), "hold.open", t0, time.Now())
		return err
	})
	heap1, err := gcHeap(ctx, base)
	if err != nil {
		return 0, nil, err
	}
	phase(func(cl *client, i int) error {
		if ids[i] == "" {
			return errors.New("session never opened")
		}
		v, err := cl.c.Finish(ctx, ids[i])
		views[i] = v
		return err
	})
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	parallel(n, func(i int) {
		if errs[i] != nil {
			return
		}
		want, err := resim(demands[i : i+1])
		if err == nil && !reflect.DeepEqual(views[i], want) {
			err = fmt.Errorf("held session %d: daemon result differs from local re-simulation", i)
		}
		errs[i] = err
	})
	out.attempted = int64(n)
	for _, err := range errs {
		if err != nil {
			out.fail(err)
		}
	}
	return (heap1 - heap0) / float64(n) / 1024, out, nil
}
